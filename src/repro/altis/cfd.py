"""CFD — 3D Euler equation solver for compressible flow (Altis Level-2).

Cell-centred finite-volume solver on an unstructured mesh (the Rodinia
``euler3d`` lineage): each element carries five conserved variables
(density, 3-momentum, energy); per Runge-Kutta step a ``compute_flux``
kernel accumulates fluxes over each element's four faces, with wall and
far-field treatment at boundary faces.

Since the original mesh files (fvcorr.domn.*) are not redistributable,
the workload generator builds a synthetic unstructured mesh with the
same shape: random face normals, a symmetric-free neighbour table with
boundary sentinels, and free-stream initial conditions.  This preserves
the kernels' gather-heavy access pattern, which is what drives every
performance effect the paper reports for CFD.

Paper relevance:

* §3.3 "NVCC vs Clang": CFD's main loop is unrolled in CUDA; keeping
  the unroll in SYCL runs up to **3x slower** (baseline Fig. 2:
  0.26-0.31 for FP32); removing it restores parity;
* CFD FP64's SYCL version is consistently **1.5x faster** than CUDA
  (Fig. 2) — modeled as an NVCC FP64 register-pressure penalty;
* §5.1: CFD FP64 kernels can be replicated **at most twice** on the
  Stratix 10 (resource bound, reproduced by the fitter);
* §5: pipes to decouple memory accesses + compute-unit replication
  (FP32: 4x on Stratix 10 -> 8x on Agilex; FP64: 2x);  vectorization
  of CFD FP32 "only scales up to V = 2" (bandwidth-bound, §5.2);
* Fig. 5: CFD is the app where FPGAs clearly lose to CPU/GPUs (poor
  pipeline occupancy from global-memory stalls).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["Cfd", "cfd_reference_iteration"]

GAMMA = 1.4
NNB = 4          # faces per element
RK_STEPS = 3
ITERATIONS = 40  # solver iterations per timed run (model)

#: far-field state: density, momentum(3), energy (a tuple, so importing
#: this module never executes numpy)
_FARFIELD = (1.0, 1.0, 0.0, 0.0, 2.5)


def _pressure(rho, mom, energy):
    v2 = (mom * mom).sum(axis=-1) / (rho * rho)
    return (GAMMA - 1.0) * (energy - 0.5 * rho * v2)


def _flux_contribution(rho, mom, energy, normal):
    """Flux through one face given the element state (vectorized)."""
    p = _pressure(rho, mom, energy)
    vel = mom / rho[..., None]
    vn = (vel * normal).sum(axis=-1)
    f_rho = rho * vn
    f_mom = mom * vn[..., None] + p[..., None] * normal
    f_energy = (energy + p) * vn
    return f_rho, f_mom, f_energy


def cfd_reference_iteration(variables: np.ndarray, neighbours: np.ndarray,
                            normals: np.ndarray, dt: float = 1e-4) -> np.ndarray:
    """One flux-accumulation + update step, vectorized ground truth.

    variables: (nel, 5); neighbours: (nel, 4) with -1 = wall, -2 =
    far-field; normals: (nel, 4, 3).
    """
    rho = variables[:, 0]
    mom = variables[:, 1:4]
    energy = variables[:, 4]
    flux = np.zeros_like(variables)
    for f in range(NNB):
        nb = neighbours[:, f]
        normal = normals[:, f, :]
        # neighbour state, with boundary sentinels patched
        nb_idx = np.clip(nb, 0, None)
        rho_n = rho[nb_idx].copy()
        mom_n = mom[nb_idx].copy()
        e_n = energy[nb_idx].copy()
        wall = nb == -1
        far = nb == -2
        # wall: mirror (no flux except pressure); far-field: free stream
        rho_n[wall] = rho[wall]
        mom_n[wall] = -mom[wall]
        e_n[wall] = energy[wall]
        rho_n[far] = _FARFIELD[0]
        mom_n[far] = _FARFIELD[1:4]
        e_n[far] = _FARFIELD[4]
        fr_i, fm_i, fe_i = _flux_contribution(rho, mom, energy, normal)
        fr_n, fm_n, fe_n = _flux_contribution(rho_n, mom_n, e_n, normal)
        flux[:, 0] += 0.5 * (fr_i + fr_n)
        flux[:, 1:4] += 0.5 * (fm_i + fm_n)
        flux[:, 4] += 0.5 * (fe_i + fe_n)
    return variables - dt * flux


def _flux_item(item, variables, neighbours, normals, farfield, out, nel, dt):
    """Per-element flux accumulation, written in the batchable dialect.

    Fully componentwise scalar arithmetic (no vector temporaries), with
    the boundary-face branches expressed as ``np.where`` selects over a
    clamped neighbour gather — the data-dependent ``if nb == -1`` of the
    migrated kernel is lane-divergent and would keep the kernel on the
    interpreter.  ``farfield`` arrives as a 5-element buffer already in
    the solver dtype so the free-stream state needs no in-kernel cast.
    """
    i = item.get_global_linear_id()
    if i >= nel:
        return
    rho = variables[i, 0]
    mx = variables[i, 1]
    my = variables[i, 2]
    mz = variables[i, 3]
    e = variables[i, 4]
    f0 = 0.0
    f1 = 0.0
    f2 = 0.0
    f3 = 0.0
    f4 = 0.0
    for f in range(NNB):
        nb = neighbours[i, f]
        nbc = max(nb, 0)  # clamp boundary sentinels for the gather
        wall = nb == -1
        far = nb == -2
        nx = normals[i, f, 0]
        ny = normals[i, f, 1]
        nz = normals[i, f, 2]
        # own and neighbour state through this face, in the order
        # cfd_reference_iteration evaluates them, so both forms agree
        # bitwise; wall mirrors, far-field is free stream
        p = (GAMMA - 1.0) * (
            e - 0.5 * rho * ((mx * mx + my * my + mz * mz) / (rho * rho)))
        vn = (mx / rho) * nx + (my / rho) * ny + (mz / rho) * nz
        rho_n = np.where(far, farfield[0], np.where(wall, rho, variables[nbc, 0]))
        mnx = np.where(far, farfield[1], np.where(wall, -mx, variables[nbc, 1]))
        mny = np.where(far, farfield[2], np.where(wall, -my, variables[nbc, 2]))
        mnz = np.where(far, farfield[3], np.where(wall, -mz, variables[nbc, 3]))
        e_n = np.where(far, farfield[4], np.where(wall, e, variables[nbc, 4]))
        p_n = (GAMMA - 1.0) * (e_n - 0.5 * rho_n * (
            (mnx * mnx + mny * mny + mnz * mnz) / (rho_n * rho_n)))
        vn_n = (mnx / rho_n) * nx + (mny / rho_n) * ny + (mnz / rho_n) * nz
        f0 = f0 + 0.5 * (rho * vn + rho_n * vn_n)
        f1 = f1 + 0.5 * ((mx * vn + p * nx) + (mnx * vn_n + p_n * nx))
        f2 = f2 + 0.5 * ((my * vn + p * ny) + (mny * vn_n + p_n * ny))
        f3 = f3 + 0.5 * ((mz * vn + p * nz) + (mnz * vn_n + p_n * nz))
        f4 = f4 + 0.5 * ((e + p) * vn + (e_n + p_n) * vn_n)
    out[i, 0] = rho - dt * f0
    out[i, 1] = mx - dt * f1
    out[i, 2] = my - dt * f2
    out[i, 3] = mz - dt * f3
    out[i, 4] = e - dt * f4


def _flux_vector(nd_range, variables, neighbours, normals, farfield, out, nel, dt):
    out[:nel] = cfd_reference_iteration(variables[:nel], neighbours[:nel],
                                        normals[:nel], dt)


class Cfd(AltisApp):
    name = "CFD"
    configs = ("CFD FP32", "CFD FP64")
    times_whole_program = False

    _NEL = {1: 97_000, 2: 193_536, 3: 232_536}
    #: FP32 / FP64 compute-unit replication (§5.1, §5.5)
    _FPGA_REPLICATION = {
        ("stratix10", False): 4, ("agilex", False): 8,
        ("stratix10", True): 2, ("agilex", True): 2,
    }

    def __init__(self, fp64: bool = False):
        self.fp64 = fp64

    @property
    def config(self) -> str:
        return "CFD FP64" if self.fp64 else "CFD FP32"

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        return {"nel": self._NEL[size], "iterations": ITERATIONS,
                "rk": RK_STEPS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        nel = self.scaled(dims["nel"], scale, minimum=32)
        iters = dims["iterations"] if scale >= 1.0 else 3
        rng = np.random.default_rng(seed)
        dtype = np.float64 if self.fp64 else np.float32
        neighbours = rng.integers(0, nel, size=(nel, NNB)).astype(np.int64)
        # sprinkle boundary faces: ~5% wall, ~5% far-field
        bmask = rng.random((nel, NNB))
        neighbours[bmask < 0.05] = -1
        neighbours[bmask > 0.95] = -2
        normals = rng.normal(size=(nel, NNB, 3))
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        normals = (normals * 0.01).astype(dtype)  # face-area weighting
        variables = np.tile(_FARFIELD, (nel, 1)).astype(dtype)
        variables[:, 0] += rng.normal(0, 0.01, nel)  # perturb density
        return Workload(
            app=self.name, size=size,
            arrays={"variables": variables, "neighbours": neighbours,
                    "normals": normals,
                    "out": np.zeros_like(variables)},
            params={"nel": nel, "iterations": iters, "dt": 1e-4},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        var = workload["variables"].copy()
        for _ in range(workload.params["iterations"]):
            var = cfd_reference_iteration(var, workload["neighbours"],
                                          workload["normals"],
                                          workload.params["dt"])
        return {"variables": var}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 1, 64) if fpga else None
        simd = 2 if (variant is Variant.FPGA_OPT and not self.fp64) else 1
        flux = KernelSpec(
            name="compute_flux", kind=KernelKind.ND_RANGE,
            item_fn=_flux_item, vector_fn=_flux_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg,
                                        num_simd_work_items=simd),
            features={"body_fmas": 160 if self.fp64 else 120,
                      "body_ops": 900 if self.fp64 else 160,
                      "global_access_sites": 8, "fp64": self.fp64,
                      "uses_pipes": variant is Variant.FPGA_OPT},
        )
        return {"compute_flux": flux}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        nel, iters, dt = p["nel"], p["iterations"], p["dt"]
        var = workload["variables"].copy()
        out = workload["out"]
        kern = self.kernels(variant)["compute_flux"]
        wg = 64 if nel >= 64 else 16
        if kern.attributes.reqd_work_group_size is not None and wg != 64:
            kern = kern.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
        gn = -(-nel // wg) * wg
        nd = NdRange(Range(gn), Range(wg))
        prof = self._profile(nel)
        farfield = np.asarray(_FARFIELD, dtype=var.dtype)
        for _ in range(iters):
            queue.parallel_for(nd, kern, var, workload["neighbours"],
                               workload["normals"], farfield, out, nel, dt,
                               profile=prof)
            var, out = out.copy(), var
        return {"variables": var}

    # -- analytical ------------------------------------------------------------
    def _profile(self, nel: int) -> KernelProfile:
        word = 8 if self.fp64 else 4
        return KernelProfile(
            name="compute_flux",
            flops=nel * NNB * 2 * 50.0,
            global_bytes=nel * (5 * word * 3 + NNB * (5 * word + 3 * word + 8)),
            work_items=nel,
            iters_per_item=NNB * 2.0,
            branch_divergence=0.15,  # boundary-face branches
            compute_efficiency=0.30,
            cpu_efficiency=0.10,  # gather-dominated
            fp64=self.fp64,
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        nel = dims["nel"]
        word = 8 if self.fp64 else 4
        prof = self._profile(nel)
        plan = LaunchPlan(transfer_bytes=nel * 5 * word * 2)
        plan.add(prof, dims["iterations"] * RK_STEPS)
        return plan

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant is Variant.SYCL_BASELINE and not self.fp64:
            # §3.3: unrolling kept from CUDA hurts Clang's SYCL codegen
            traits = ("harmful_unroll",)
        if variant is Variant.CUDA and self.fp64:
            # Fig. 2: SYCL FP64 is 1.5x faster — NVCC register pressure
            traits = ("nvcc_fp64_spill",)
        return ImplVariant(name=f"{self.name}:{variant.value}",
                           runtime=variant.runtime, traits=traits)

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        nel, iters = dims["nel"], dims["iterations"]
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        kern = self.kernels(variant)["compute_flux"]
        repl = self._FPGA_REPLICATION[(device_key, self.fp64)] if optimized else 1
        prof = self._profile(nel)
        if optimized:
            # pipes/replication mitigate but do not remove the
            # global-memory stalls (§5.4: 'poor pipeline occupancy');
            # the FP64 datapath stalls less per element (wider words,
            # fewer outstanding gathers)
            stall = 2.0 if self.fp64 else 4.0
            prof = prof.with_(iters_per_item=NNB * 2.0 * stall)
        else:
            # migrated kernel: gather stalls dominate every face access
            prof = prof.with_(iters_per_item=NNB * 2.0 * 2.25)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof, iters * RK_STEPS)
        tag = "fp64" if self.fp64 else "fp32"
        design = Design(f"cfd_{tag}_{'opt' if optimized else 'base'}_s{size}",
                        dpct_headers=not optimized)
        design.add(KernelDesign(kern, replication=repl))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"compute_flux": (kern, repl)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=3_200,
            constructs=[
                Construct("kernel_def", 5),
                Construct("cuda_event_timing", 16),
                Construct("usm_mem_advise", 16),
                Construct("syncthreads", 10, local_scope_detectable=True),
                Construct("device_new_delete", 2),  # in-kernel scratch
                Construct("dpct_helper_use", 14),
                Construct("generic_api", 150),
                Construct("cmake_command", 2),
            ],
        )

"""Raytracing — path-traced sphere scene (Altis Level-2).

A "Ray Tracing in One Weekend"-style path tracer: a random sphere scene
with three material kinds (lambertian, metal, dielectric), per-pixel
stochastic sampling with bounded bounce depth.

Paper relevance (the most migration-affected app):

* §3.2.2: the CUDA version dispatches hit/scatter through **virtual
  functions**, unsupported in SYCL kernels and *silently* migrated by
  DPCT — Raytracing needed a major manual refactor (tagged-union
  materials, no virtual dispatch);
* §3.3: DPCT swaps cuRAND's **XORWOW** for oneMKL's **Philox4x32-10**,
  so CUDA and SYCL render different random estimates of the same image
  — "their execution times are not directly comparable".  Both
  generators are available here (``rng_kind``);
* Fig. 2: SYCL is ~11.6x/18.6x/21.7x faster than the CUDA original —
  modeled as the virtual-dispatch + RNG traits on the CUDA side;
* §5.1 (Listing 1): the ``material`` class is fused into a single
  ``sycl::float8`` so the FPGA compiler infers a stall-free memory
  system — both layouts are implemented and tested for equivalence;
* §5.5: unroll retuned 30x -> 16x on Agilex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["Raytracing", "Material", "MaterialF8", "render"]

MAX_DEPTH = 8
#: material type tags (Listing 1)
METAL, DIELECTRIC, LAMBERTIAN = 0, 1, 2


@dataclass
class Material:
    """Listing 1's *original* material class: heterogeneous members.

    All members are float32, as in the C++ original — which is why the
    float8 fusion is bit-exact, not just approximately equal.
    """

    m_type: int
    albedo: np.ndarray  # float3
    fuzz: float = 0.0
    ref_idx: float = 1.0

    def __post_init__(self) -> None:
        self.albedo = np.asarray(self.albedo, dtype=np.float32)
        self.fuzz = float(np.float32(self.fuzz))
        self.ref_idx = float(np.float32(self.ref_idx))

    def to_float8(self) -> "MaterialF8":
        data = np.zeros(8, dtype=np.float32)
        data[0] = self.fuzz
        data[1] = self.ref_idx
        data[2:5] = self.albedo
        data[5] = float(self.m_type)
        return MaterialF8(data)


@dataclass
class MaterialF8:
    """Listing 1's *optimized* layout: one fused ``sycl::float8``.

    ``data`` holds eight float32 values: data[0]=fuzz, data[1]=ref_idx,
    data[2:5]=albedo, data[5]=type (data[6:8] is padding).
    """

    data: np.ndarray

    @property
    def m_type(self) -> int:
        return int(self.data[5])

    @property
    def albedo(self) -> np.ndarray:
        return np.asarray(self.data[2:5])

    @property
    def fuzz(self) -> float:
        return float(self.data[0])

    @property
    def ref_idx(self) -> float:
        return float(self.data[1])


def make_scene(n_spheres: int, seed: int):
    """Random sphere scene: (centers, radii, materials)."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_spheres + 1, 3), dtype=np.float64)
    radii = np.zeros(n_spheres + 1, dtype=np.float64)
    mats: list[Material] = []
    # ground sphere
    centers[0] = (0.0, -1000.0, 0.0)
    radii[0] = 1000.0
    mats.append(Material(LAMBERTIAN, np.array([0.5, 0.5, 0.5])))
    for i in range(1, n_spheres + 1):
        centers[i] = (rng.uniform(-4, 4), rng.uniform(0.2, 1.2), rng.uniform(-4, 4))
        radii[i] = rng.uniform(0.2, 0.5)
        kind = rng.integers(0, 3)
        if kind == LAMBERTIAN:
            mats.append(Material(LAMBERTIAN, rng.uniform(0, 1, 3)))
        elif kind == METAL:
            mats.append(Material(METAL, rng.uniform(0.5, 1, 3),
                                 fuzz=rng.uniform(0, 0.3)))
        else:
            mats.append(Material(DIELECTRIC, np.ones(3), ref_idx=1.5))
    return centers, radii, mats


def _hit_spheres(origins, dirs, centers, radii, t_min=1e-3):
    """Vectorized nearest-hit over all spheres for a batch of rays.

    Returns (t, sphere index) with index -1 for miss.
    """
    n = origins.shape[0]
    best_t = np.full(n, np.inf)
    best_i = np.full(n, -1, dtype=np.int64)
    for s in range(len(radii)):
        oc = origins - centers[s]
        a = np.einsum("ij,ij->i", dirs, dirs)
        half_b = np.einsum("ij,ij->i", oc, dirs)
        c = np.einsum("ij,ij->i", oc, oc) - radii[s] * radii[s]
        disc = half_b * half_b - a * c
        hit = disc > 0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t1 = (-half_b - sq) / a
        t2 = (-half_b + sq) / a
        t = np.where(t1 > t_min, t1, t2)
        valid = hit & (t > t_min) & (t < best_t)
        best_t[valid] = t[valid]
        best_i[valid] = s
    return best_t, best_i


def _reflect(v, n):
    return v - 2.0 * np.einsum("ij,ij->i", v, n)[:, None] * n


def _unit(v):
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(norm == 0, 1.0, norm)


def render(width: int, height: int, samples: int, scene, rng,
           max_depth: int = MAX_DEPTH) -> np.ndarray:
    """Vectorized path tracer over all pixel samples.

    ``rng`` is a ``numpy.random.Generator``; the bit generator determines
    the stream (Philox for the SYCL flavour, a seeded fallback standing
    in for XORWOW's stream on the CUDA flavour).
    """
    centers, radii, mats = scene
    mat_type = np.array([m.m_type for m in mats])
    mat_albedo = np.array([m.albedo for m in mats])
    mat_fuzz = np.array([m.fuzz for m in mats])
    mat_ref = np.array([m.ref_idx for m in mats])

    n = width * height * samples
    jitter = rng.random((n, 2))
    px = (np.tile(np.arange(width), height * samples)[:n] + jitter[:, 0]) / width
    py = (np.repeat(np.arange(height), width)[None, :].repeat(samples, 0).reshape(-1)
          + jitter[:, 1]) / height

    # simple pinhole camera
    origins = np.tile(np.array([0.0, 1.5, 6.0]), (n, 1))
    lower_left = np.array([-2.0, -0.5, -2.0])
    horiz = np.array([4.0, 0.0, 0.0])
    vert = np.array([0.0, 2.0, 0.0])
    dirs = _unit(lower_left + px[:, None] * horiz + py[:, None] * vert
                 + np.array([0.0, 0.0, -4.0]) - origins * np.array([0, 0, 0]))

    color = np.ones((n, 3))
    active = np.ones(n, dtype=bool)
    for _ in range(max_depth):
        if not active.any():
            break
        idx = np.where(active)[0]
        t, si = _hit_spheres(origins[idx], dirs[idx], centers, radii)
        miss = si < 0
        # sky gradient for missed rays
        unit_d = _unit(dirs[idx][miss])
        tt = 0.5 * (unit_d[:, 1] + 1.0)
        sky = (1.0 - tt)[:, None] * np.ones(3) + tt[:, None] * np.array([0.5, 0.7, 1.0])
        color[idx[miss]] *= sky
        active[idx[miss]] = False

        hit = ~miss
        if not hit.any():
            continue
        hidx = idx[hit]
        hp = origins[hidx] + t[hit, None] * dirs[hidx]
        s_id = si[hit]
        normal = _unit(hp - centers[s_id])
        m_t = mat_type[s_id]
        albedo = mat_albedo[s_id]

        scattered = np.zeros_like(dirs[hidx])
        rand_unit = _unit(rng.normal(size=(len(hidx), 3)))
        # lambertian: diffuse bounce
        lam = m_t == LAMBERTIAN
        scattered[lam] = normal[lam] + rand_unit[lam]
        # metal: fuzzy reflection
        met = m_t == METAL
        refl = _reflect(_unit(dirs[hidx][met]), normal[met])
        scattered[met] = refl + mat_fuzz[s_id][met, None] * rand_unit[met]
        # dielectric: Schlick probability reflection / refraction
        die = m_t == DIELECTRIC
        if die.any():
            unit_d = _unit(dirs[hidx][die])
            cos = np.minimum(-np.einsum("ij,ij->i", unit_d, normal[die]), 1.0)
            r0 = ((1 - mat_ref[s_id][die]) / (1 + mat_ref[s_id][die])) ** 2
            schlick = r0 + (1 - r0) * (1 - cos) ** 5
            reflect_mask = rng.random(int(die.sum())) < schlick
            out_d = np.where(reflect_mask[:, None],
                             _reflect(unit_d, normal[die]),
                             unit_d + 0.4 * normal[die])  # bent transmission
            scattered[die] = out_d
        color[hidx] *= np.where(m_t[:, None] == DIELECTRIC, 1.0, albedo)
        origins[hidx] = hp
        dirs[hidx] = _unit(scattered)

    # rays that never terminated contribute black
    color[active] = 0.0
    img = color.reshape(samples, height, width, 3).mean(axis=0)
    return np.clip(np.sqrt(img), 0.0, 1.0)  # gamma 2


class Raytracing(AltisApp):
    name = "Raytracing"
    times_whole_program = False

    _DIMS = {1: (512, 512, 4), 2: (1024, 1024, 4), 3: (2048, 2048, 4)}
    N_SPHERES = 32
    _FPGA_UNROLL = {"stratix10": 30, "agilex": 16}  # §5.5

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        w, h, spp = self._DIMS[size]
        return {"width": w, "height": h, "samples": spp,
                "spheres": self.N_SPHERES}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        w = self.scaled(dims["width"], scale, minimum=8)
        h = self.scaled(dims["height"], scale, minimum=8)
        spp = dims["samples"] if scale >= 1.0 else 2
        return Workload(
            app=self.name, size=size,
            arrays={"img": np.zeros((h, w, 3), dtype=np.float64)},
            params={"width": w, "height": h, "samples": spp,
                    "spheres": self.N_SPHERES if scale >= 1.0 else 6,
                    "seed": seed},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        """Reference = the Philox-stream render (the SYCL flavour)."""
        return {"img": self._render(workload, rng_kind="philox")}

    def _render(self, workload: Workload, rng_kind: str) -> np.ndarray:
        p = workload.params
        scene = make_scene(p["spheres"], p["seed"])
        if rng_kind == "philox":
            rng = np.random.Generator(np.random.Philox(p["seed"] + 1))
        else:
            # XORWOW stand-in stream: a different, deterministic stream
            # (numpy lacks xorwow; the *distinctness* of streams is what
            # the paper's caveat is about)
            rng = np.random.Generator(np.random.PCG64(p["seed"] + 2))
        return render(p["width"], p["height"], p["samples"], scene, rng)

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 1, 64) if fpga else None

        def vec(nd_range, img, workload, rng_kind):
            img[:] = self._render(workload, rng_kind)

        kern = KernelSpec(
            name="render", kind=KernelKind.ND_RANGE,
            vector_fn=vec,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 40, "body_ops": 90,
                      "global_access_sites": 3,
                      "variable_trip_loop": True,
                      "local_memories": [
                          {"bytes": (self.N_SPHERES + 1) * 32, "static": True,
                           "ports": 2, "bankable": True}]},
        )
        return {"render": kern}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        img = workload["img"]
        kern = self.kernels(variant)["render"]
        h, w = p["height"], p["width"]
        wg = 64 if w % 64 == 0 else w
        if kern.attributes.reqd_work_group_size is not None and wg != 64:
            kern = kern.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
        nd = NdRange(Range(h, -(-w // wg) * wg), Range(1, wg))
        rng_kind = "xorwow" if variant is Variant.CUDA else "philox"
        queue.parallel_for(nd, kern, img, workload, rng_kind,
                           profile=self._profile(w, h, p["samples"]))
        return {"img": img}

    # -- analytical ------------------------------------------------------------
    def _profile(self, w: int, h: int, spp: int) -> KernelProfile:
        rays = w * h * spp
        avg_bounces = 3.0
        return KernelProfile(
            name="render",
            flops=rays * avg_bounces * (self.N_SPHERES + 1) * 15.0,
            special_ops=rays * avg_bounces * 4.0,
            global_bytes=w * h * 12.0 + rays * 8.0,
            work_items=w * h,
            iters_per_item=spp * avg_bounces * (self.N_SPHERES + 1) / 4.0,
            branch_divergence=0.5,
            compute_efficiency=0.25,
            cpu_efficiency=0.24,  # scalarized tracer, decent ILP on CPU
        )

    def launch_plan_for(self, dims: dict, variant: Variant) -> LaunchPlan:
        prof = self._profile(dims["width"], dims["height"], dims["samples"])
        plan = LaunchPlan(transfer_bytes=dims["width"] * dims["height"] * 12)
        plan.add(prof, 1)
        return plan

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant is Variant.CUDA:
            # §3.2.2/§3.3: virtual dispatch per bounce + XORWOW per-sample
            # cost; the SYCL refactor removes both
            traits = ("virtual_dispatch_deep",)
        if variant in (Variant.SYCL_BASELINE, Variant.SYCL_OPT):
            traits = ("rng_philox_vs_xorwow",)
        return ImplVariant(name=f"{self.name}:{variant.value}",
                           runtime=variant.runtime, traits=traits)

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        w, h, spp = dims["width"], dims["height"], dims["samples"]
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        kern = self.kernels(variant)["render"]
        unroll = self._FPGA_UNROLL[device_key] if optimized else 1
        prof = self._profile(w, h, spp)
        if optimized:
            # float8-fused materials: stall-free memory system (§5.1) +
            # sphere-loop unrolling
            prof = prof.with_(iters_per_item=prof.iters_per_item / unroll)
        else:
            # heterogeneous material struct: non-stall-free loads (§5.1)
            prof = prof.with_(iters_per_item=prof.iters_per_item * 2.0)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof, 1)
        design = Design(f"raytracing_{'opt' if optimized else 'base'}_s{size}",
                        dpct_headers=not optimized)
        design.add(KernelDesign(kern, unroll=unroll))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"render": (kern, 1)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=2_100,
            constructs=[
                Construct("kernel_def", 3),
                Construct("cuda_event_timing", 8),
                Construct("usm_mem_advise", 8),
                Construct("virtual_function", 9),   # §3.2.2
                Construct("device_new_delete", 5),  # scene built in-kernel
                Construct("curand_xorwow", 3),
                Construct("generic_api", 80),
                Construct("cmake_command", 2),
            ],
        )

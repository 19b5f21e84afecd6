"""Ablations — §5.1 datatype optimization (Listing 1) and §3.2.1 barrier
fence scope."""

import numpy as np

from repro.altis.raytracing import LAMBERTIAN, Material
from repro.fpga import Design, KernelDesign, synthesize
from repro.perfmodel import FpgaModel, KernelProfile, get_spec
from repro.perfmodel.traits import TRAITS
from repro.sycl import KernelSpec


def test_material_float8_fusion(benchmark, report):
    """Listing 1: the heterogeneous material struct infers a non
    stall-free memory system (arbitered); the float8 fusion banks
    cleanly.  Compare resources, Fmax, and modeled kernel time."""
    spec = get_spec("stratix10")
    n_mats = 33 * 32  # material table bytes

    def build(fused: bool):
        mem = {"bytes": n_mats * (32 if fused else 13),
               "ports": 1 if fused else 3,
               "bankable": fused}
        kern = KernelSpec(name="rt_core", vector_fn=lambda nd, *a: None,
                          features={"body_fmas": 40, "body_ops": 90,
                                    "global_access_sites": 3,
                                    "local_memories": [mem]})
        syn = synthesize(Design("fused" if fused else "struct").add(
            KernelDesign(kern)), spec)
        prof = KernelProfile(name="rt_core", flops=1e9, global_bytes=1e7,
                             work_items=1 << 20, iters_per_item=8.0)
        t = FpgaModel(spec, syn).nd_range_time_s(kern, prof).time_s
        return syn, t

    def sweep():
        return {fused: build(fused) for fused in (False, True)}

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    (syn_s, t_s), (syn_f, t_f) = out[False], out[True]
    lines = [
        f"{'layout':<22}{'Fmax [MHz]':>12}{'ALMs':>10}{'t [ms]':>10}",
        f"{'original struct':<22}{syn_s.fmax_mhz:>12.1f}"
        f"{syn_s.resources.alms:>10}{t_s * 1e3:>10.3f}",
        f"{'fused sycl::float8':<22}{syn_f.fmax_mhz:>12.1f}"
        f"{syn_f.resources.alms:>10}{t_f * 1e3:>10.3f}",
        "",
        "paper §5.1: the fused layout removes the arbiters and the",
        "three inferred store ports, yielding a stall-free memory system",
    ]
    assert syn_f.fmax_mhz > syn_s.fmax_mhz
    assert t_f < t_s
    assert syn_f.resources.alms < syn_s.resources.alms
    report("Ablation: material datatype optimization (Listing 1)",
           "\n".join(lines))


def test_material_fusion_is_lossless(benchmark):
    """The functional side of Listing 1: field-for-field equivalence."""
    rng = np.random.default_rng(0)

    def roundtrip():
        mats = [Material(int(rng.integers(0, 3)), rng.uniform(0, 1, 3),
                         fuzz=float(rng.uniform(0, 1)),
                         ref_idx=float(rng.uniform(1, 2)))
                for _ in range(64)]
        fused = [m.to_float8() for m in mats]
        for m, f in zip(mats, fused):
            assert m.m_type == f.m_type
            assert np.allclose(m.albedo, f.albedo, atol=1e-6)
        return len(fused)

    assert benchmark(roundtrip) == 64


def test_barrier_scope_trait(report):
    """§3.2.1: narrowing barrier fences to local scope — the modeled
    cost of leaving DPCT's global-scope default in place."""
    trait = TRAITS["barrier_global_scope"]
    lines = [
        f"un-narrowed global-scope fences cost x{trait.kernel_multiplier} "
        "kernel time (applied to every SYCL_BASELINE variant that",
        "synchronizes: NW, SRAD, DWT2D)",
        f"reference: {trait.reference}",
    ]
    assert trait.kernel_multiplier > 1.0
    report("Ablation: barrier fence scope (§3.2.1)", "\n".join(lines))

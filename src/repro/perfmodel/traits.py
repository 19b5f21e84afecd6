"""Implementation traits: compiler/runtime mechanisms that separate the
CUDA, baseline-SYCL, and optimized-SYCL versions of a kernel.

Figure 2's baseline-vs-optimized gaps come from specific, named
mechanisms in the paper (§3.3), not from vague "tuning".  Each mechanism
is modeled as a multiplicative kernel-time penalty attached to an
implementation variant:

===========================  ================================================
trait                        paper mechanism
===========================  ================================================
``harmful_unroll``           NVCC benefits from ``#pragma unroll``; Clang's
                             SYCL path regresses up to 3x on CFD's main loop
``missing_inline``           Clang inlines cautiously: NW's kernel function
                             stays un-inlined until
                             ``-finlining-threshold=10000``; ~2x slowdown
``pow_not_strength_reduced`` the *CUDA* version calls ``pow(a,2)``; DPCT's
                             ``a*a`` rewrite makes SYCL up to 6x faster
                             (penalty belongs to the CUDA side of PF Float)
``onedpl_scan``              oneDPL's prefix-sum is 1.5x slower than CUDA's
``virtual_dispatch``         Raytracing's CUDA version dispatches materials
                             virtually; SYCL removes this in the refactor
``rng_philox_vs_xorwow``     RNG swap changes Raytracing's per-sample cost
``barrier_global_scope``     un-narrowed barrier fences (baseline SYCL)
===========================  ================================================

A variant is a set of trait multipliers; variant factories below encode
the combinations used throughout the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Trait", "TRAITS", "ImplVariant"]


@dataclass(frozen=True)
class Trait:
    """One named mechanism with its kernel-time multiplier (>1 = slower)."""

    name: str
    kernel_multiplier: float
    reference: str


TRAITS: dict[str, Trait] = {
    t.name: t
    for t in [
        Trait("harmful_unroll", 3.0, "paper §3.3: CFD 3x worse with unrolling"),
        Trait("missing_inline", 2.0, "paper §3.3: NW 2x faster with inline threshold"),
        Trait("pow_not_strength_reduced", 6.0, "paper §3.3: pow(a,2) vs a*a, PF Float"),
        Trait("onedpl_scan", 1.5, "paper §3.3: oneDPL prefix-sum 50% slower"),
        Trait("virtual_dispatch", 1.6, "paper §3.2.2/§3.3: Raytracing virtual fns"),
        Trait("rng_philox_vs_xorwow", 0.55, "paper §3.3: oneMKL philox cheaper/sample"),
        Trait("barrier_global_scope", 1.12, "paper §3.2.1: un-narrowed fences"),
        Trait("missed_vectorization", 1.35, "baseline SYCL pre-tuning losses"),
        Trait("nvcc_fp64_spill", 1.5, "Fig. 2: CFD FP64 SYCL 1.5x faster than CUDA"),
        Trait("virtual_dispatch_deep", 12.0,
              "Fig. 2 Raytracing: per-bounce virtual dispatch blocks "
              "inlining/register allocation in the CUDA original"),
    ]
}


@dataclass(frozen=True)
class ImplVariant:
    """An implementation variant: name + the traits afflicting it.

    ``kernel_multiplier(kernel_name)`` gives the combined slow-down for a
    kernel; per-kernel scoping lets a variant afflict only e.g. the CFD
    main loop.
    """

    name: str
    runtime: str  # "cuda" | "sycl"
    traits: tuple[str, ...] = ()
    #: kernel-name -> extra trait names applying only to that kernel
    per_kernel: dict = field(default_factory=dict)

    def kernel_multiplier(self, kernel_name: str | None = None) -> float:
        names = list(self.traits)
        if kernel_name is not None:
            names += list(self.per_kernel.get(kernel_name, ()))
        mult = 1.0
        for n in names:
            mult *= TRAITS[n].kernel_multiplier
        return mult

"""Framework for Altis Level-2 applications.

Every application (Table 1 of the paper) implements :class:`AltisApp`:

* **workloads** — deterministic synthetic input generation per Altis
  input size (1-3), with a ``scale`` knob so functional tests run
  laptop-sized problems while the *performance model* always uses the
  nominal paper-sized dimensions;
* **reference** — a pure-numpy implementation that defines correct
  output (the stand-in for the original CUDA binary's output);
* **SYCL kernels** — the functional kernels (item and/or vectorized
  forms) used by :meth:`run_sycl`;
* **launch plans** — per-variant :class:`~repro.perfmodel.profile.LaunchPlan`
  for any problem dims (``launch_plan_for``); the figures time it at
  the nominal dims;
* **FPGA designs** — per-device/per-variant
  :class:`~repro.fpga.resources.Design` objects, used for Table 3 and
  the FPGA figures;
* **source model** — the construct-level CUDA source description the
  DPCT analogue migrates (§3.2 statistics).

The first three are the functional half, which ``repro suite`` runs;
the last three are the model half, which only the figures, ``migrate``,
``synth`` and modeled times read.  An app module imports only its
functional layers (``sycl``, ``perfmodel.spec`` and
``perfmodel.profile``) at module level; the queue times each launch's
``KernelProfile`` with ``perfmodel.timeline``/``gpu``/``overhead``.
The model half (``perfmodel.traits``/``fpga``, ``fpga.*`` and
``dpct.source_model``) is imported inside
:meth:`AltisApp.xpu_time`, :meth:`AltisApp.fpga_time`,
:meth:`AltisApp.variant_traits`, :meth:`AltisApp.fpga_setup` and
:meth:`AltisApp.source_model`, so it loads on the first call.

Variants (:class:`Variant`) name the implementation stages of the
paper's methodology pipeline: original CUDA -> DPCT baseline SYCL ->
GPU-optimized SYCL -> FPGA baseline -> FPGA optimized.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..common.errors import InvalidParameterError
from ..perfmodel.profile import LaunchPlan
from ..perfmodel.spec import get_spec

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel
    from ..fpga.resources import Design
    from ..perfmodel.timeline import RunDecomposition
    from ..perfmodel.traits import ImplVariant

__all__ = ["Variant", "SIZES", "Workload", "AltisApp", "FpgaSetup"]

SIZES = (1, 2, 3)


class Variant(str, Enum):
    """Implementation stages from the paper's migration pipeline."""

    CUDA = "cuda"
    SYCL_BASELINE = "sycl_baseline"      # DPCT output, functionally fixed
    SYCL_OPT = "sycl_opt"                # §3.3 GPU-optimized
    FPGA_BASE = "fpga_base"              # §4 refactored, non-optimized
    FPGA_OPT = "fpga_opt"                # §5 optimized

    @property
    def runtime(self) -> str:
        return "cuda" if self is Variant.CUDA else "sycl"


@dataclass
class Workload:
    """One generated input instance.

    ``size`` is the Altis input-size level; ``arrays`` holds the named
    input arrays; ``params`` holds scalar parameters (iterations etc.).
    """

    app: str
    size: int
    arrays: dict[str, np.ndarray]
    params: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


@dataclass
class FpgaSetup:
    """Everything needed to synthesize and time one FPGA build."""

    design: Design
    plan: LaunchPlan
    #: profile-name -> KernelSpec, for structural FPGA timing
    kernels: dict = field(default_factory=dict)


class AltisApp(abc.ABC):
    """Base class for one Altis Level-2 application."""

    #: canonical app name as the paper spells it
    name: str = ""
    #: whether Altis times the whole program rather than just kernels
    times_whole_program: bool = False

    # -- workloads --------------------------------------------------------
    @abc.abstractmethod
    def nominal_dims(self, size: int) -> dict:
        """Paper-scale problem dimensions for one input size (1-3)."""

    @abc.abstractmethod
    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        """Generate a deterministic workload; ``scale`` < 1 shrinks the
        problem for functional testing without changing its structure."""

    # -- functional layer ---------------------------------------------------
    @abc.abstractmethod
    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        """Pure-numpy ground truth."""

    @abc.abstractmethod
    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        """Execute the SYCL implementation on a queue; returns outputs
        comparable to :meth:`reference`."""

    # -- analytical layer ---------------------------------------------------
    @abc.abstractmethod
    def launch_plan_for(self, dims: dict, variant: Variant) -> LaunchPlan:
        """The launches one run at problem dimensions ``dims`` makes: the
        nominal dims for the figures, a workload's ``params`` for the
        launches its :meth:`run_sycl` books."""

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        """Nominal per-run work for the performance model."""
        return self.launch_plan_for(self.nominal_dims(size), variant)

    def variant_traits(self, variant: Variant, config: str | None = None) -> ImplVariant:
        """The mechanisms (traits) afflicting one implementation variant.

        Default: no traits; apps override with their paper-documented
        mechanisms (harmful unroll, missing inlining, pow vs a*a, ...).
        """
        from ..perfmodel.traits import ImplVariant

        return ImplVariant(name=f"{self.name}:{variant.value}", runtime=variant.runtime)

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> "FpgaSetup":
        """Design + launch plan for one FPGA build of this app.

        Apps with an FPGA port override this.
        """
        raise NotImplementedError(f"{self.name} has no FPGA design")

    @abc.abstractmethod
    def source_model(self) -> SourceModel:
        """Construct-level CUDA source description for the DPCT analogue."""

    # -- modeled timing entry points -----------------------------------------
    def xpu_time(self, size: int, variant: Variant, device_key: str,
                 config: str | None = None) -> RunDecomposition:
        """Model one run on a CPU/GPU device for a CUDA/SYCL variant."""
        from ..perfmodel.overhead import overheads_for
        from ..perfmodel.timeline import model_for, time_launch_plan

        self.check_size(size)
        spec = get_spec(device_key)
        plan = self.launch_plan(size, variant)
        overheads = overheads_for(variant.runtime, spec)
        traits = self.variant_traits(variant, config)
        return time_launch_plan(plan, spec, overheads, variant=traits,
                                device_model=model_for(spec))

    def fpga_time(self, size: int, optimized: bool, device_key: str,
                  seed: int = 1) -> RunDecomposition:
        """Model one run of an FPGA build (synthesize + time)."""
        from ..fpga.synthesis import synthesize
        from ..perfmodel.fpga import FpgaModel
        from ..perfmodel.overhead import overheads_for
        from ..perfmodel.timeline import time_launch_plan

        self.check_size(size)
        setup = self.fpga_setup(size, optimized, device_key)
        spec = get_spec(device_key)
        model = FpgaModel(spec, synthesize(setup.design, spec, seed=seed))
        overheads = overheads_for("sycl", spec)
        return time_launch_plan(setup.plan, spec, overheads,
                                device_model=model, kernels=setup.kernels)

    def reported_time_s(self, size: int, variant: Variant, device_key: str,
                        config: str | None = None) -> float:
        """The time this app's harness *reports* for one run.

        Kernel-only for event-timed apps; total for whole-program-timed
        apps (§3.3 'Discussion').  CUDA measurement quirks have their own
        methods: FDTD2D's missing cudaDeviceSynchronize is
        ``FdTd2D.cuda_measurement(fixed=False)``.
        """
        if variant in (Variant.FPGA_BASE, Variant.FPGA_OPT):
            decomp = self.fpga_time(size, variant is Variant.FPGA_OPT, device_key)
        else:
            decomp = self.xpu_time(size, variant, device_key, config)
        return decomp.total_s if self.times_whole_program else decomp.kernel_s

    # -- helpers -------------------------------------------------------------
    def check_size(self, size: int) -> None:
        if size not in SIZES:
            raise InvalidParameterError(
                f"{self.name}: size must be one of {SIZES}, got {size}"
            )

    @staticmethod
    def scaled(value: int, scale: float, minimum: int = 4) -> int:
        """Scale a dimension down for functional runs, keeping structure."""
        return max(minimum, int(round(value * scale)))

    def verify(self, result: dict[str, np.ndarray], expected: dict[str, np.ndarray],
               rtol: float = 1e-4, atol: float = 1e-5) -> None:
        """Assert result arrays match the reference.

        A pass is decided with the predicate ``np.testing.assert_allclose``
        evaluates (equal shapes, numeric dtypes, ``np.isclose`` with
        ``equal_nan``).  Only a failing output reaches ``assert_allclose``
        itself, so a passing run never imports ``numpy.testing`` (which
        pulls in ``unittest`` and ``email``) and a failing one raises the
        same message as always.
        """
        for key, exp in expected.items():
            got, exp = np.asarray(result[key]), np.asarray(exp)
            if (got.shape == exp.shape
                    and np.issubdtype(got.dtype, np.number)
                    and np.issubdtype(exp.dtype, np.number)
                    and np.isclose(got, exp, rtol=rtol, atol=atol,
                                   equal_nan=True).all()):
                continue
            np.testing.assert_allclose(
                got, exp, rtol=rtol, atol=atol,
                err_msg=f"{self.name}: output {key!r} diverges from reference",
            )

    def __repr__(self) -> str:
        return f"<AltisApp {self.name}>"

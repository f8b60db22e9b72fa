"""Sensitivity analysis: are the conclusions calibration-robust?

The simulator's fitted constants (``repro.memsim.calibration``) carry
measurement and digitization uncertainty. A reproduction whose
conclusions flipped under a 10% recalibration would be fragile — so this
module perturbs the key fitted parameters and re-verifies the paper's
12 insights under each perturbation. The result quantifies which
conclusions are *structural* (hold under any plausible calibration) and
which depend on the exact numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import CalibrationError, ConfigurationError
from repro.core.insights import verify_all
from repro.memsim import BandwidthModel, MachineConfig
from repro.memsim.calibration import DeviceCalibration, paper_calibration

#: The fitted parameters whose uncertainty matters most, as
#: (group, field) pairs. Structural constants (line sizes, interleave
#: granularity) are deliberately excluded — they are facts, not fits.
PERTURBED_FIELDS: tuple[tuple[str, str], ...] = (
    ("pmem", "seq_read_max"),
    ("pmem", "seq_write_max"),
    ("pmem", "read_stream_rate"),
    ("pmem", "write_stream_rate"),
    ("pmem", "wc_pressure_coeff"),
    ("pmem", "cold_far_read_max"),
    ("pmem", "warm_far_read_max"),
    ("pmem", "far_write_max"),
    ("dram", "seq_read_max"),
    ("dram", "seq_write_max"),
    ("upi", "raw_per_direction"),
    ("mixed", "read_interference_coeff"),
    ("mixed", "write_interference_coeff"),
)


def perturb(
    calibration: DeviceCalibration, group: str, field_name: str, factor: float
) -> DeviceCalibration:
    """A copy of ``calibration`` with one field scaled by ``factor``."""
    if factor <= 0:
        raise ConfigurationError("perturbation factor must be positive")
    sub = getattr(calibration, group)
    value = getattr(sub, field_name)
    perturbed_sub = dataclasses.replace(sub, **{field_name: value * factor})
    return dataclasses.replace(calibration, **{group: perturbed_sub})


@dataclass
class SensitivityReport:
    """Outcome of the perturbation sweep."""

    magnitude: float
    #: (group.field, factor) -> {insight number: holds}
    outcomes: dict[tuple[str, float], dict[int, bool]] = field(default_factory=dict)
    #: Perturbations rejected by calibration validation (physically
    #: impossible combinations — e.g. PMEM reads overtaking DRAM).
    rejected: list[tuple[str, float]] = field(default_factory=list)

    @property
    def robust_insights(self) -> set[int]:
        """Insights that hold under every admissible perturbation."""
        if not self.outcomes:
            return set()
        numbers = set(next(iter(self.outcomes.values())))
        return {
            n for n in numbers
            if all(result[n] for result in self.outcomes.values())
        }

    @property
    def fragile_insights(self) -> dict[int, list[tuple[str, float]]]:
        """Insights that fail somewhere, with the perturbations at fault."""
        fragile: dict[int, list[tuple[str, float]]] = {}
        for key, result in self.outcomes.items():
            for number, holds in result.items():
                if not holds:
                    fragile.setdefault(number, []).append(key)
        return fragile

    def describe(self) -> str:
        lines = [
            f"sensitivity at ±{self.magnitude * 100:.0f}%: "
            f"{len(self.outcomes)} admissible perturbations, "
            f"{len(self.rejected)} rejected by validation"
        ]
        lines.append(
            f"  robust insights : {sorted(self.robust_insights)}"
        )
        fragile = self.fragile_insights
        if fragile:
            for number, causes in sorted(fragile.items()):
                shown = ", ".join(f"{name} x{factor:.2f}" for name, factor in causes[:3])
                lines.append(f"  insight #{number} fails under: {shown}")
        else:
            lines.append("  no insight fails under any admissible perturbation")
        return "\n".join(lines)


def analyze(
    magnitude: float = 0.10,
    fields: tuple[tuple[str, str], ...] = PERTURBED_FIELDS,
    base: DeviceCalibration | None = None,
) -> SensitivityReport:
    """Scale each fitted field by (1 ± magnitude) and re-verify insights.

    Perturbations that violate the calibration's physical-ordering
    validation (e.g. warm-far reads overtaking near reads) are recorded
    as rejected rather than evaluated — the validator exists precisely
    to exclude impossible devices.
    """
    if not 0 < magnitude < 1:
        raise ConfigurationError("magnitude must be in (0, 1)")
    base = base if base is not None else paper_calibration()
    report = SensitivityReport(magnitude=magnitude)
    for group, field_name in fields:
        for factor in (1.0 - magnitude, 1.0 + magnitude):
            key = (f"{group}.{field_name}", factor)
            candidate = perturb(base, group, field_name, factor)
            try:
                # MachineConfig validates on construction; an admissible
                # candidate becomes a hashable config whose evaluations
                # share the process-wide cache across perturbations.
                config = MachineConfig(calibration=candidate)
            except CalibrationError:
                report.rejected.append(key)
                continue
            report.outcomes[key] = verify_all(BandwidthModel(config))
    return report

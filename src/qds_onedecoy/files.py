"""Plain-text interchange: sifted-count tables, run configuration, reports.

Counts travel as CSV with a small ``# key=value`` preamble carrying the
context a bare table would lose (distance, pulse budget).  Configuration
is flat ``key = value`` text; unknown keys are rejected rather than
ignored so typos fail loudly.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields, replace

from .channel import BASES, INTENSITIES, ChannelParams, ObservedCounts, PulseConfig
from .finite_key import BOUND_APPLICATIONS, EpsilonBudget
from .security import SecurityReport

__all__ = [
    "FileFormatError",
    "Config",
    "CONFIG_ENV_VAR",
    "read_counts",
    "write_counts",
    "read_config",
    "default_config_path",
    "format_report",
    "write_rate_curve",
]

CONFIG_ENV_VAR = "QDS_CONFIG"

_COUNTS_COLUMNS = ["link", "basis", "intensity", "n", "m"]


class FileFormatError(ValueError):
    """An interchange file does not parse or fails a consistency check."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def write_counts(
    fp: io.TextIOBase,
    counts_by_link: dict[str, ObservedCounts],
    distance_km: float,
    n_pulses: float,
) -> None:
    """Write per-link sifted counts with the context preamble."""
    fp.write(f"# distance_km={distance_km!r}\n")
    fp.write(f"# n_pulses={n_pulses!r}\n")
    writer = csv.writer(fp)
    writer.writerow(_COUNTS_COLUMNS)
    for link, counts in counts_by_link.items():
        for basis in BASES:
            for intensity in INTENSITIES:
                writer.writerow(
                    [link, basis, intensity, counts.n(basis, intensity), counts.m(basis, intensity)]
                )


def read_counts(path: str) -> tuple[dict[str, ObservedCounts], float, float]:
    """Read a counts table; returns (counts per link, distance_km, n_pulses)."""
    preamble: dict[str, float] = {}
    rows: list[dict[str, str]] = []
    with open(path, newline="") as fp:
        body: list[str] = []
        for line in fp:
            stripped = line.strip()
            if stripped.startswith("#"):
                item = stripped.lstrip("#").strip()
                if "=" not in item:
                    raise FileFormatError(
                        f"{path}: preamble line {stripped!r} is not key=value"
                    )
                key, _, value = item.partition("=")
                try:
                    preamble[key.strip()] = _finite(value)
                except ValueError as exc:
                    raise FileFormatError(
                        f"{path}: preamble value for {key.strip()!r} is not a finite number"
                    ) from exc
            elif stripped:
                body.append(line)
        reader = csv.DictReader(body)
        if reader.fieldnames != _COUNTS_COLUMNS:
            raise FileFormatError(
                f"{path}: expected header {','.join(_COUNTS_COLUMNS)}, "
                f"got {','.join(reader.fieldnames or [])}"
            )
        rows = list(reader)
    for key in ("distance_km", "n_pulses"):
        if key not in preamble:
            raise FileFormatError(f"{path}: preamble is missing '# {key}=...'")

    cells: dict[str, dict[str, float]] = {}
    for idx, row in enumerate(rows, start=2):
        link = row["link"]
        basis = row["basis"]
        intensity = row["intensity"]
        if basis not in BASES:
            raise FileFormatError(
                f"{path}: row {idx}: basis must be one of {BASES}, got {basis!r}"
            )
        if intensity not in INTENSITIES:
            raise FileFormatError(
                f"{path}: row {idx}: intensity must be one of {INTENSITIES}, "
                f"got {intensity!r}"
            )
        try:
            n = _finite(row["n"])
            m = _finite(row["m"])
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: row {idx}: n and m must be finite numbers") from exc
        field = f"{basis.lower()}_{intensity}"
        link_cells = cells.setdefault(link, {})
        if f"n_{field}" in link_cells:
            raise FileFormatError(
                f"{path}: duplicate cell ({link}, {basis}, {intensity})"
            )
        link_cells[f"n_{field}"] = n
        link_cells[f"m_{field}"] = m

    counts_by_link: dict[str, ObservedCounts] = {}
    expected = {
        f"{kind}_{basis.lower()}_{intensity}"
        for kind in "nm"
        for basis in BASES
        for intensity in INTENSITIES
    }
    for link, link_cells in cells.items():
        missing = expected - set(link_cells)
        if missing:
            raise FileFormatError(
                f"{path}: link {link!r} is missing cells: {sorted(missing)}"
            )
        try:
            counts_by_link[link] = ObservedCounts(**link_cells)
        except ValueError as exc:
            raise FileFormatError(f"{path}: link {link!r}: {exc}") from exc
    if not counts_by_link:
        raise FileFormatError(f"{path}: no count rows found")
    return counts_by_link, preamble["distance_km"], preamble["n_pulses"]


@dataclass(frozen=True)
class Config:
    """Run configuration: source, link (all but its distance), budget, analysis."""

    source: PulseConfig
    link: ChannelParams
    budget: EpsilonBudget
    alpha: float
    eps: float
    target_psec: float
    k_test: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "eps", "target_psec"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value:g}")
        if self.k_test is not None and self.k_test < 1:
            raise ValueError(f"k_test must be at least 1, got {self.k_test}")

    def pulse_config(self, n_pulses: float | None = None) -> PulseConfig:
        return self.source if n_pulses is None else replace(self.source, n_pulses=n_pulses)

    def channel(self, distance_km: float) -> ChannelParams:
        return replace(self.link, distance_km=distance_km)


# each flat key feeds the dataclass that declares it; the distance is
# given per command and the three objects are not keys themselves
_NOT_KEYS = {"distance_km", "source", "link", "budget"}
_CONFIG_KEYS = [
    f.name
    for cls in (PulseConfig, ChannelParams, EpsilonBudget, Config)
    for f in fields(cls)
    if f.name not in _NOT_KEYS
]
_OPTIONAL_KEYS = {"k_test", "seed"}
_INT_KEYS = {"k_test", "seed"}


def read_config(path: str) -> Config:
    """Parse a flat key = value configuration file, validating every value at load."""
    values: dict[str, float] = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise FileFormatError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                    f"{', '.join(sorted(_CONFIG_KEYS))}"
                )
            if key in values:
                raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = int(value) if key in _INT_KEYS else _finite(value)
            except ValueError as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: value for {key!r} is not a number: {value!r}"
                ) from exc
    missing = set(_CONFIG_KEYS) - _OPTIONAL_KEYS - set(values)
    if missing:
        raise FileFormatError(f"{path}: missing required keys: {sorted(missing)}")

    def pick(cls: type) -> dict[str, float]:
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    try:
        return Config(
            source=PulseConfig(**pick(PulseConfig)),
            link=ChannelParams(distance_km=0.0, **pick(ChannelParams)),
            budget=EpsilonBudget(**pick(EpsilonBudget)),
            **pick(Config),  # type: ignore[arg-type]
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def default_config_path() -> str | None:
    """Config path from the environment, used when --config is omitted."""
    return os.environ.get(CONFIG_ENV_VAR) or None


def format_report(
    report: SecurityReport,
    distance_km: float | None = None,
    budget: EpsilonBudget | None = None,
) -> str:
    """Human-readable, line-parseable summary of one security report."""
    est = report.estimates
    lines: list[str] = []
    if distance_km is not None:
        lines.append(f"distance_km: {distance_km:g}")
    lines += [
        f"block_length: {report.L}",
        f"test_sample: {report.k_test}",
        f"s_z1_lower_block: {est.s_z1_lower:.6g}",
        f"phi_z1_upper_block: {est.phi_z1_upper:.6g}",
        f"saturated: {str(est.saturated).lower()}",
        f"e_upper: {report.e_upper:.6g}",
        f"p_e: {report.p_e:.6g}",
        f"s_alpha: {report.thresholds.s_alpha:.6g}",
        f"s_upsilon: {report.thresholds.s_upsilon:.6g}",
        f"p_robust: {report.p_robust:.6g}",
        f"p_repudiation_raw: {report.p_repudiation_raw:.6g}",
        f"p_repudiation: {report.p_repudiation:.6g}",
        f"epsilon_forge: {report.epsilon_forge:.6g}",
        f"p_forge_raw: {report.p_forge_raw:.6g}",
        f"p_forge: {report.p_forge:.6g}",
        f"p_sec: {report.p_sec:.6g}",
        f"time_per_bit_s: {report.time_per_bit_s:.6g}",
        f"rate_bits_per_s: {report.rate_bits_per_s:.6g}",
    ]
    if budget is not None:
        lines.append(
            f"epsilon_budget: {len(BOUND_APPLICATIONS)} bounds at eps_pe={budget.eps_pe:g} "
            f"(total {budget.total:g})"
        )
        lines.append("epsilon_uses: " + " ".join(BOUND_APPLICATIONS))
    return "\n".join(lines) + "\n"


def write_rate_curve(fp: io.TextIOBase, rows: list[dict[str, object]]) -> None:
    """Write rate-vs-distance rows as CSV.

    Infeasible distances carry rate 0, block length 0, p_sec 1 and
    feasible=false, so the file stays rectangular and diffable.
    """
    writer = csv.writer(fp)
    writer.writerow(["distance_km", "rate_bits_per_s", "L", "p_sec", "feasible"])
    for row in rows:
        writer.writerow(
            [
                row["distance_km"],
                row["rate_bits_per_s"],
                row["L"],
                row["p_sec"],
                "true" if row["feasible"] else "false",
            ]
        )

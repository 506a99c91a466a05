"""Plain-text interchange: sifted-count tables, run configuration, reports.

Counts travel as CSV with a small ``# key=value`` preamble carrying the
context a bare table would lose (distance, pulse budget).  Configuration
is flat ``key = value`` text; unknown keys are rejected rather than
ignored so typos fail loudly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .channel import (
    _CELL_NAMES, BASES, INTENSITIES, LINKS, ChannelParams, ObservedCounts, PulseConfig,
)
from .finite_key import BOUND_APPLICATIONS, EpsilonBudget
from .security import SecurityTarget

if TYPE_CHECKING:
    from .optimizer import OptimizeResult
    from .security import SecurityReport

__all__ = [
    "FileFormatError",
    "Config",
    "CONFIG_ENV_VAR",
    "read_counts",
    "read_config",
    "format_report",
    "write_rate_curve",
]

CONFIG_ENV_VAR = "QDS_CONFIG"

_COUNTS_COLUMNS = ["link", "basis", "intensity", "n", "m"]
_PREAMBLE_KEYS = ("distance_km", "n_pulses")


class FileFormatError(ValueError):
    """An interchange file does not parse or fails a consistency check."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


@contextlib.contextmanager
def _open_text(path: str, newline: str | None = None) -> Iterator[io.TextIOBase]:
    """Open UTF-8 text, with or without a byte-order mark; a bad byte names the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fp:
        try:
            yield fp
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_counts(path: str) -> tuple[dict[str, ObservedCounts], float, float]:
    """Read a counts table; returns (counts per link, distance_km, n_pulses)."""
    preamble: dict[str, float] = {}
    with _open_text(path, newline="") as fp:
        body: list[str] = []
        body_lines: list[int] = []  # the file line of each body line
        for number, line in enumerate(fp, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                item = stripped.lstrip("#").strip()
                if "=" not in item:
                    raise FileFormatError(
                        f"{path}: line {number}: preamble line {stripped!r} is not key=value"
                    )
                key, _, value = (part.strip() for part in item.partition("="))
                if key not in _PREAMBLE_KEYS or key in preamble:
                    fault = "repeated" if key in preamble else f"not one of {_PREAMBLE_KEYS}"
                    raise FileFormatError(f"{path}: line {number}: preamble key {key!r} is {fault}")
                try:
                    preamble[key] = _finite(value)
                except ValueError as exc:
                    raise FileFormatError(
                        f"{path}: line {number}: preamble value for {key!r} is not a finite number"
                    ) from exc
            elif stripped:
                body.append(line)
                body_lines.append(number)
        reader = csv.DictReader(body)
        if reader.fieldnames != _COUNTS_COLUMNS:
            raise FileFormatError(
                f"{path}: expected header {','.join(_COUNTS_COLUMNS)}, "
                f"got {','.join(reader.fieldnames or [])}"
            )
        rows = [(body_lines[reader.line_num - 1], row) for row in reader]
    for key in _PREAMBLE_KEYS:
        if key not in preamble:
            raise FileFormatError(f"{path}: preamble is missing '# {key}=...'")

    n_pulses = preamble["n_pulses"]
    # per link, (basis, intensity, n/m) in the layout of ObservedCounts.cells;
    # NaN marks a cell no row has filled, since every value read is finite
    cells = {link: np.full((2, 2, 2), np.nan) for link in LINKS}
    for number, row in rows:
        if None in row or None in row.values():
            raise FileFormatError(f"{path}: line {number}: expected {len(_COUNTS_COLUMNS)} fields")
        for column, valid in (("link", LINKS), ("basis", BASES), ("intensity", INTENSITIES)):
            if row[column] not in valid:
                raise FileFormatError(
                    f"{path}: line {number}: {column} must be one of {valid}, got {row[column]!r}"
                )
        try:
            n = _finite(row["n"])
            m = _finite(row["m"])
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: line {number}: n and m must be finite numbers"
            ) from exc
        link, basis, intensity = row["link"], row["basis"], row["intensity"]
        cell = cells[link][BASES.index(basis), INTENSITIES.index(intensity)]
        if not np.isnan(cell[0]):
            raise FileFormatError(
                f"{path}: line {number}: duplicate cell ({link}, {basis}, {intensity})"
            )
        cell[:] = n, m

    counts_by_link: dict[str, ObservedCounts] = {}
    for link, link_cells in cells.items():
        values = link_cells.ravel().tolist()
        missing = [name for name, v in zip(_CELL_NAMES, values) if math.isnan(v)]
        if missing:
            raise FileFormatError(
                f"{path}: link {link!r} is missing cells: {sorted(missing)}"
            )
        try:
            counts_by_link[link] = ObservedCounts(*values)
        except ValueError as exc:
            raise FileFormatError(f"{path}: link {link!r}: {exc}") from exc
        detections = link_cells[..., 0].sum()
        if detections > n_pulses:
            raise FileFormatError(
                f"{path}: link {link!r}: {detections:g} detections exceed the "
                f"n_pulses={n_pulses:g} pulses sent"
            )
    return counts_by_link, preamble["distance_km"], n_pulses


@dataclass(frozen=True)
class Config:
    """Run configuration: source, link (all but its distance), security target, seed."""

    source: PulseConfig
    link: ChannelParams
    target: SecurityTarget
    seed: int = 0

    def __post_init__(self) -> None:
        # PulseConfig admits nu = 0, but every command bounds a decoy pulse
        if not self.source.nu > 0.0:
            raise ValueError(
                f"nu must be positive: the decoy-state bounds need a decoy intensity, "
                f"got {self.source.nu:g}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def pulse_config(self, n_pulses: float | None = None) -> PulseConfig:
        return self.source if n_pulses is None else replace(self.source, n_pulses=n_pulses)

    def channel(self, distance_km: float) -> ChannelParams:
        return replace(self.link, distance_km=distance_km)


# each flat key feeds the dataclass that declares it; the distance is
# given per command and the four objects are not keys themselves
_NOT_KEYS = {"distance_km", "source", "link", "target", "budget"}
_CONFIG_KEYS = [
    f.name
    for cls in (PulseConfig, ChannelParams, EpsilonBudget, SecurityTarget, Config)
    for f in fields(cls)
    if f.name not in _NOT_KEYS
]
_OPTIONAL_KEYS = {"k_test", "seed"}
_INT_KEYS = {"k_test", "seed"}


def read_config(path: str) -> Config:
    """Parse a flat key = value configuration file, validating every value at load."""
    values: dict[str, float] = {}
    with _open_text(path) as fp:
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
                kind = "an integer" if key in _INT_KEYS else "a number"
                raise FileFormatError(
                    f"{path}:{lineno}: value for {key!r} is not {kind}: {value!r}"
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
            target=SecurityTarget(EpsilonBudget(**pick(EpsilonBudget)), **pick(SecurityTarget)),
            **pick(Config),  # type: ignore[arg-type]
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def format_report(report: SecurityReport, distance_km: float, budget: EpsilonBudget) -> str:
    """Human-readable, line-parseable summary of one security report."""
    est = report.estimates
    lines = [
        f"distance_km: {distance_km:g}",
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
        f"epsilon_budget: {len(BOUND_APPLICATIONS)} bounds at eps_pe={budget.eps_pe:g} "
        f"(total {budget.total:g})",
        "epsilon_uses: " + " ".join(BOUND_APPLICATIONS),
    ]
    return "\n".join(lines) + "\n"


def write_rate_curve(
    fp: io.TextIOBase, results: Iterable[tuple[float, OptimizeResult]]
) -> None:
    """Write one CSV row per (distance_km, optimize result) pair.

    Infeasible distances carry rate 0, block length 0, p_sec 1 and
    feasible=false, so the file stays rectangular and diffable.
    """
    writer = csv.writer(fp)
    writer.writerow(["distance_km", "rate_bits_per_s", "L", "p_sec", "feasible"])
    for distance_km, result in results:
        report = result.report
        if report is None:
            writer.writerow([distance_km, 0.0, 0, 1.0, "false"])
        else:
            writer.writerow([distance_km, report.rate_bits_per_s, report.L, report.p_sec, "true"])

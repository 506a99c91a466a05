"""Span recorder for the traced benchmark run.

``install`` replaces each function named in ``SPANNED`` and ``COUNTED``
with a recording wrapper, in every ``qds_onedecoy.*`` module that binds
it: ``cli`` and ``optimizer`` import names directly, so patching only the
defining module would miss their calls.  Methods are patched on their
class.  ``uninstall`` puts the originals back, so untraced passes in the
same process run the unmodified program.

Each span records its name, start, end, parent span and the op id shared
by every span of one benchmark op (one CLI call or one audit).  Spans
stay in typed arrays in memory and are written out once, by ``dump``,
when the run ends.  Self time is a span's duration minus the time its
direct child spans cover; children never overlap because the program is
single-threaded.  ``COUNTED`` functions run about 10^5 to 10^6 times per
op, so they are only counted and their time stays in the caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "qds_onedecoy"

#: (module, qualified name) of every function given a span.
SPANNED = (
    ("cli", "main"),
    ("files", "read_config"),
    ("files", "read_counts"),
    ("files", "format_report"),
    ("files", "write_rate_curve"),
    ("optimizer", "optimize"),
    ("optimizer", "evaluate"),
    ("security", "min_signature_length"),
    ("security", "block_report"),
    ("finite_key", "block_scale"),
    ("finite_key", "estimate_counts"),
    ("finite_key", "observed_error_upper"),
    ("stat_math", "binary_entropy_inverse"),
    ("stat_math", "gamma_correction"),
    ("channel", "expected_statistics"),
    ("channel", "sample_statistics"),
    ("protocol", "run_kgp"),
    ("protocol", "symmetrize"),
    ("protocol", "verify"),
    ("protocol", "ProtocolSession.run_distribution"),
    ("protocol", "ProtocolSession.run_messaging"),
    ("protocol", "attack_repudiation"),
    ("protocol", "attack_forge"),
    ("protocol", "exact_forge_success"),
)

#: Leaf functions that are counted, not spanned.
COUNTED = (("stat_math", "binary_entropy"),)

_SOLVER = "security.min_signature_length"
_PROBE = "finite_key.block_scale"
MAX_NAMES = 64


class Recorder:
    """In-memory spans plus per-pass aggregates (calls, total and self time).

    The aggregates are lists indexed by name id and reset in place, so the
    wrappers can bind them once; that keeps the per-call cost low.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[list] = []  # open spans: [span index, child seconds]
        self.current_op = [-1]
        self.counted: set[int] = set()
        self.calls = [0] * MAX_NAMES
        self.total = [0.0] * MAX_NAMES
        self.self_time = [0.0] * MAX_NAMES
        self.active = [0] * MAX_NAMES
        self.extra: Counter = Counter()
        self._ops: dict[str, object] = {}

    def begin_pass(self) -> None:
        self.calls[:] = [0] * MAX_NAMES
        self.total[:] = [0.0] * MAX_NAMES
        self.self_time[:] = [0.0] * MAX_NAMES
        self.extra.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            if len(self.names) == MAX_NAMES:
                raise ValueError(f"more than {MAX_NAMES} traced names")
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def run_op(self, kind: str, fn, *args):
        """Run one benchmark op under a new op id and a root span ``bench.<kind>``."""
        self.current_op[0] += 1
        if kind not in self._ops:
            self._ops[kind] = _spanning(self, f"bench.{kind}", lambda f, *a: f(*a))
        return self._ops[kind](fn, *args)

    def pass_stats(self) -> dict[str, float]:
        """calls / total_s / self_s of every traced name, counts and extras."""
        stats: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if name.startswith("bench."):
                continue
            stats[f"{name}.calls"] = self.calls[nid]
            if nid in self.counted:
                continue
            stats[f"{name}.total_s"] = self.total[nid]
            stats[f"{name}.self_s"] = self.self_time[nid]
        stats.update(self.extra)
        return stats

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
        )


def _hooks(rec: Recorder, name: str):
    """Counts taken at a span's entry or from its result, for derived metrics."""
    extra = rec.extra
    if name == _SOLVER:
        # links x solves is the base of security.probes_per_solve
        def before(args, kwargs):
            extra["security.link_solves"] += len(args[0] if args else kwargs["counts_by_link"])

        return before, None
    if name == _PROBE:
        solver, active = rec.name_id(_SOLVER), rec.active

        def before(args, kwargs):
            if active[solver]:
                extra["security.solver_probes"] += 1

        return before, None
    if name == "optimizer.optimize":
        def after(result):
            extra["optimizer.evaluations"] += result.evaluations
            extra["optimizer.n_feasible"] += result.n_feasible

        return None, after
    if name == "protocol.run_kgp":
        def after(result):
            extra["protocol.key_bits"] += len(result.tx_pool)

        return None, after
    return None, None


def _spanning(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    before, after = _hooks(rec, name)
    stack, current_op, end = rec.stack, rec.current_op, rec.end
    name_append, start_append, end_append = rec.name.append, rec.start.append, rec.end.append
    parent_append, op_append = rec.parent.append, rec.op_id.append
    calls, total, self_time, active = rec.calls, rec.total, rec.self_time, rec.active

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = len(end)
        name_append(nid)
        parent_append(stack[-1][0] if stack else -1)
        op_append(current_op[0])
        end_append(0.0)
        active[nid] += 1
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        start_append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            end[idx] = t1
            stack.pop()
            active[nid] -= 1
            dur = t1 - t0
            calls[nid] += 1
            total[nid] += dur
            self_time[nid] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
        if after is not None:
            after(result)
        return result

    return traced


def _counting(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    rec.counted.add(nid)
    calls = rec.calls

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[nid] += 1
        return fn(*args, **kwargs)

    return counted


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Patch every target; returns the undo list for ``uninstall``."""
    importlib.import_module(f"{PACKAGE}.cli")  # the package init skips cli
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    patches: list[tuple[object, str, object]] = []
    for targets, make in ((SPANNED, _spanning), (COUNTED, _counting)):
        for module_name, qualname in targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, make(rec, name, original))
                patches.append((owner, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = make(rec, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patches.append((mod, attr, original))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)

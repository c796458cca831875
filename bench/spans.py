"""In-memory spans around calls into pofsig's public functions.

The tracer replaces module attributes with timing wrappers, so every
caller that looks the function up through a module namespace (including
``from .x import f`` copies inside the package) records a span.  Spans
are kept in flat arrays (name, parent, start, end) and summarised when
the traced pass ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, function) pairs wrapped during a traced pass.  ``digest_bits``
# is deliberately absent: it runs once per enumerated candidate, so a
# span per call would multiply the cost of the loops it sits in; the
# layer probes time it in bulk instead.
SPANNED = (
    ("oracle", "oracle_eval"),
    ("oracle", "chain"),
    ("adversary", "build_lamport_preimage_index"),
    ("adversary", "enumerate_preimages"),
    ("adversary", "chain_preimages"),
    ("adversary", "forge_lamport"),
    ("adversary", "forge_wots"),
    ("lamport", "keygen"),
    ("lamport", "sign"),
    ("lamport", "verify"),
    ("wots", "keygen"),
    ("wots", "sign"),
    ("wots", "verify"),
    ("pof", "scheme_verify"),
    ("pof", "detect_forgery"),
    ("pof", "verify_pof2"),
    ("analysis", "run_fda_experiment"),
    ("analysis", "preimage_census"),
    ("analysis", "fda_bounds"),
    ("serial", "loads"),
    ("serial", "load_path"),
    ("serial", "dump_path"),
    ("serial", "dump_secret_key"),
    ("serial", "dump_public_key"),
    ("serial", "dump_signature"),
    ("serial", "dump_pof2"),
)


class Tracer:
    """Records nested spans; use as a context manager to patch pofsig."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, fn, span_name: str):
        """Return fn wrapped so that each call records a span named span_name."""
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pofsig" or n.startswith("pofsig.")]
        for mod_name, fn_name in SPANNED:
            home = importlib.import_module(f"pofsig.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self.wrap(orig, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()
        return False

    def __len__(self) -> int:
        return len(self.start)

    def self_times_ns(self) -> list[int]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self, wall_s: float) -> dict:
        """Per span name: calls, total and self seconds, self share of wall_s."""
        own = self.self_times_ns()
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        selfs = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            selfs[nid] += own[i]
        return {
            name: {
                "calls": calls[k],
                "total_s": total[k] / 1e9,
                "self_s": selfs[k] / 1e9,
                "self_share": selfs[k] / 1e9 / wall_s,
            }
            for k, name in enumerate(self.names)
            if calls[k]
        }

    def root_total_s(self) -> float:
        """Summed duration of top-level spans, which equals the summed self times."""
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0
        ) / 1e9

    def nesting_errors(self) -> int:
        """Spans that end before they start or lie outside their parent."""
        bad = 0
        for i, p in enumerate(self.parent):
            s, e = self.start[i], self.end[i]
            if e < s or (p >= 0 and not (self.start[p] <= s and e <= self.end[p])):
                bad += 1
        return bad

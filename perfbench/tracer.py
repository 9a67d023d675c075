"""Per-layer accounting for a traced run, installed from outside the library.

`Tracer.install()` replaces each target function of the imported `affbasis`
package by a wrapper that counts calls and accumulates self time: its
elapsed time minus the elapsed time of the wrapped calls made inside it.
Nothing is stored per call, so hot leaves stay cheap to trace.

A function is replaced everywhere it is bound: in its defining module and
in every `affbasis` module that imported the name (`relations.sparse_rank`,
`relations.act`, `enveloping.partitions_at_most`, ...).  Methods are
replaced on their class.  A target the library no longer has is skipped,
listed in `Tracer.missing`, and its figures read 0.

Cache behaviour is measured from the arguments, not from the library's
cache dictionaries: the wrappers of the memoized functions keep the set of
distinct call keys, so misses = distinct keys and hit ratio = 1 - misses /
calls.  That is exact as long as the caches never evict.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path, reported name); a method is "Class.method"
TARGETS = (
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("linalg", "SpanReducer.reduce", "linalg.SpanReducer.reduce"),
    ("linalg", "SpanReducer.insert", "linalg.SpanReducer.insert"),
    ("enveloping", "straighten_word", "enveloping.straighten_word"),
    ("enveloping", "mode_on_partition", "enveloping.mode_on_partition"),
    ("enveloping", "apply_mode", "enveloping.apply_mode"),
    ("enveloping", "act", "enveloping.act"),
    ("relations", "relation_space", "relations.relation_space"),
    ("relations", "RelationSpace.__init__", "relations.RelationSpace"),
    ("relations", "shift_matrix", "relations.shift_matrix"),
    ("relations", "loop_action", "relations.loop_action"),
    ("relations", "transport_matrix", "relations.transport_matrix"),
    ("relations", "orbit_basis", "relations.orbit_basis"),
    ("relations", "collapse", "relations.collapse"),
    ("relations", "submodule_span_blocks", "relations.submodule_span_blocks"),
    ("partitions", "partitions_at_most", "partitions.partitions_at_most"),
    ("partitions", "enumerate_ideal", "partitions.enumerate_ideal"),
    ("qseries", "product_side", "qseries.product_side"),
    ("qseries", "specialized_count_series", "qseries.specialized_count_series"),
    ("qseries", "tricolor_count_series", "qseries.tricolor_count_series"),
    ("qseries", "character_oracle", "qseries.character_oracle"),
)

# memoized functions whose call keys are the positional arguments
KEYED = frozenset(
    {"enveloping.mode_on_partition", "relations.shift_matrix", "relations.relation_space"}
)


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for _, _, name in TARGETS}
        self.self_s = {name: 0.0 for _, _, name in TARGETS}
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.missing: list[str] = []
        self.rows_in = 0  # rows handed to sparse_rank
        self.rank_total = 0  # sum of the ranks sparse_rank returned
        self.span_rows = 0  # rows submodule_span_blocks produced
        self._stack: list[list[float]] = []  # wrapped time of each open call's children

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "affbasis"]
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(f"affbasis.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                tracer.missing.append(name)
                continue
            wrapper = tracer._wrap(name, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
        return tracer

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        keys = self.keys.get(name)
        after = {
            "linalg.sparse_rank": self._after_rank,
            "relations.submodule_span_blocks": self._after_span,
        }.get(name)

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(args)
            inner = [0.0]
            stack.append(inner)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner[0]
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_rank(self, args, rank) -> None:
        self.rows_in += len(args[0])
        self.rank_total += rank

    def _after_span(self, args, blocks) -> None:
        self.span_rows += sum(len(rows) for rows in blocks.values())

    def metrics(self) -> dict:
        """Counts, self times and cache ratios, keyed `<module>.<function>.<quantity>`."""
        out: dict = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        for name, keys in self.keys.items():
            calls = self.calls[name]
            out[f"{name}.misses"] = len(keys)
            out[f"{name}.hit_ratio"] = 1 - len(keys) / calls if calls else 0.0
        out["linalg.sparse_rank.rows_in"] = self.rows_in
        out["linalg.rank_total"] = self.rank_total
        out["relations.span_rows"] = self.span_rows
        out["attributed_s"] = sum(self.self_s.values())
        return out

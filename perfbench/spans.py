"""Span recorder for the traced benchmark run.

Spans are recorded from outside dl2: `install` replaces public functions at
the module attributes their callers look them up by, so no dl2 source file
carries tracing code.  Each span keeps its parent and its self time (its
duration minus the time covered by its child spans).  Spans stay in memory
and are summarised once, when the repetition ends.

`cyclotomic`, `modlinalg`, `abelian` and `rings` are not wrapped: their
calls are too small for a per-call span, so their cost shows up as the self
time of their callers.
"""

from __future__ import annotations

import functools
import time

# Verifier checks, by the function name `run_case`/`run_suite` call.  The
# check id is the name without `check_`, with `-` for `_`.
CHECK_FUNCTIONS = (
    "check_group_order",
    "check_table_validity",
    "check_stability",
    "check_classification_coherence",
    "check_dimension_law",
    "check_degree_census",
    "check_sl_exceptions",
    "check_sign_formula",
    "check_inflation_adjunction",
    "check_mode_independence",
    "check_classical_sweep",
)
CHECK_IDS = tuple(f[len("check_"):].replace("_", "-") for f in CHECK_FUNCTIONS)
VERDICTS = ("pass", "fail", "inapplicable", "error")


class Recorder:
    """Stack of open spans plus the list of finished ones."""

    def __init__(self):
        self.finished = []  # (span_id, parent_id, name, duration_s, self_s)
        self._open = []  # [span_id, start, child_s]
        self.verdicts = dict.fromkeys(VERDICTS, 0)

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            frame = [len(self.finished) + len(self._open), time.perf_counter(), 0.0]
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_result is not None:
                    self.verdicts["error"] += 1
                raise
            finally:
                duration = time.perf_counter() - frame[1]
                self._open.pop()
                if self._open:
                    self._open[-1][2] += duration
                self.finished.append((frame[0], parent, name, duration, duration - frame[2]))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_verdict(self, check):
        self.verdicts[check.verdict] += 1

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        A span nested inside a span of the same name adds to the calls and
        self time but not again to the inclusive time."""
        names = {span_id: (name, parent) for span_id, parent, name, _, _ in self.finished}
        out = {}
        for span_id, parent, name, duration, self_s in self.finished:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            if not _has_ancestor(names, parent, name):
                row["total_s"] += duration
        return out

    def tree(self) -> dict:
        """Self seconds and calls per call path, e.g. `a > b > c`."""
        paths = {}
        path_of = {}
        for span_id, parent, name, _dur, self_s in sorted(self.finished):
            path = name if parent is None else f"{path_of[parent]} > {name}"
            path_of[span_id] = path
            row = paths.setdefault(path, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
        return paths


def _has_ancestor(names, span_id, name) -> bool:
    while span_id is not None:
        ancestor, span_id = names[span_id]
        if ancestor == name:
            return True
    return False


def install(recorder: Recorder):
    """Wrap the traced layers of an imported dl2 in `recorder`'s spans."""
    import dl2.cache
    import dl2.characters
    import dl2.dixon
    import dl2.groups
    import dl2.verifier

    targets = [
        (dl2.groups.ConjugacyData, "__init__", "groups.conjugacy"),
        (dl2.groups.ConjugacyData, "power_map", "groups.power_map"),
        (dl2.dixon, "class_matrix", "dixon.class_matrix"),
        (dl2.dixon, "character_table_mod_l", "dixon.mod_l"),
        (dl2.characters, "lift_table", "dixon.lift"),
        (dl2.characters, "verify_orthogonality", "dixon.verify_orthogonality"),
        (dl2.characters.CharacterTable, "__init__", "characters.table_init"),
        (dl2.cache, "save_table", "cache.save_table"),
        (dl2.cache, "save_group", "cache.save_group"),
        (dl2.cache, "load_table", "cache.load_table"),
        (dl2.verifier, "adjunction_check", "characters.adjunction_check"),
        (dl2.characters, "inner_product", "characters.inner_product"),
        (dl2.verifier, "inner_product", "characters.inner_product"),
        (dl2.characters, "kernel_average", "characters.kernel_average"),
        (dl2.characters, "inflate", "characters.inflate"),
        (dl2.verifier, "inflate", "characters.inflate"),
        (dl2.verifier, "make_torus", "torus.make_torus"),
        (dl2.verifier, "classify_all", "torus.classify_all"),
        (dl2.verifier, "conductor_brute_force", "torus.conductor_brute_force"),
        (dl2.verifier, "conductor_by_peeling", "torus.conductor_by_peeling"),
        (dl2.verifier, "predict_gl2", "predictor.predict"),
        (dl2.verifier, "predict_sl2", "predictor.predict"),
        (dl2.verifier, "sweep_classical_signs", "weyl.sweep_classical_signs"),
    ]
    for owner, attr, name in targets:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    for fn_name, check_id in zip(CHECK_FUNCTIONS, CHECK_IDS):
        fn = getattr(dl2.verifier, fn_name)
        setattr(
            dl2.verifier,
            fn_name,
            recorder.wrap(f"verifier.check.{check_id}", fn, recorder.count_verdict),
        )

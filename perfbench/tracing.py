"""In-process tracing of the package's public functions, from outside it.

``Tracer`` replaces functions at their module bindings (the name a caller
looks up), so a call made through ``harness.apery_set`` and one made
through ``semigroup.apery_set`` are told apart, and nothing under ``src/``
changes.  Each call becomes a span kept in memory as
[name, start, end, parent, trial, args, result]; ``write`` saves them.

A trial runs from the ``substream`` call that opens its random stream to the
next such call, or to the end of the library call the CLI made for it.
Its id is the stream key (seed, tag, index) plus the p of the enclosing
call, so the two passes ``events`` makes over one trial count as one trial,
while sweep trials at different p, which share a stream, stay apart.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (binding module, attribute, layer the function belongs to, keep result)
_TRACED = (
    ("cli", "main", "cli", False),
    ("harness", "run_sweep", "harness", False),
    ("harness", "sweep_csv", "harness", False),
    ("harness", "estimate_event_failures", "harness", False),
    ("harness", "expected_small_generators_check", "harness", False),
    ("sumsets", "run_coverage_experiment", "sumsets", False),
    ("harness", "sample_unconstrained", "sampler", True),
    ("harness", "sample_bounded", "sampler", False),
    ("sampler", "frobenius", "semigroup", False),
    ("harness", "invariants", "semigroup", False),
    ("harness", "frobenius", "semigroup", False),
    ("harness", "apery_set", "semigroup", False),
    ("semigroup", "apery_set", "semigroup", False),
    ("semigroup", "minimal_generators", "semigroup", False),
    ("semigroup", "membership_table", "semigroup", False),
    ("sumsets", "k_fold_sumset", "sumsets", False),
    ("sumsets", "add_sets", "sumsets", False),
    ("harness", "substream", "rng", False),
    ("sampler", "substream", "rng", False),
    ("sumsets", "substream", "rng", False),
)

# library calls the CLI makes; a trial never runs past the end of one
_ENTRY_CALLS = frozenset({
    "harness.run_sweep", "harness.estimate_event_failures",
    "harness.expected_small_generators_check", "sumsets.run_coverage_experiment",
})

NAME, START, END, PARENT, TRIAL, ARGS, RESULT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.layer: dict[str, str] = {}
        self._stack: list[int] = []
        self._trial = None
        # (time, trial id or None): a trial starts at each mark, ends at the next
        self.marks: list[tuple[float, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from randsemigroup import cli, harness, sampler, semigroup, sumsets

        modules = {"cli": cli, "harness": harness, "sampler": sampler,
                   "semigroup": semigroup, "sumsets": sumsets}
        for mod_name, attr, layer, keep in _TRACED:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue  # binding gone: its spans and counts read zero
            name = f"{mod_name}.{attr}"
            self.layer[name] = layer
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, original, keep: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_trial = name.endswith(".substream")
        ends_trials = name in _ENTRY_CALLS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_trial:
                self._open_trial(args, parent)
            record = [name, 0.0, 0.0, parent, self._trial, args, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if ends_trials:
                    self.marks.append((record[END], None))
                    self._trial = None
            if keep:
                record[RESULT] = result
            return result

        return traced

    def _open_trial(self, stream_key: tuple, parent: int) -> None:
        p = None
        if parent >= 0 and self.spans[parent][ARGS]:
            first = self.spans[parent][ARGS][0]
            p = first if isinstance(first, float) else getattr(first, "p", None)
        self._trial = (p, *stream_key)
        self.marks.append((time.perf_counter(), self._trial))

    def trial_seconds(self) -> dict:
        """Wall time per trial id, summed over the trial's passes."""
        total: dict = defaultdict(float)
        for (start, trial), (end, _) in zip(self.marks, self.marks[1:]):
            if trial is not None:
                total[trial] += end - start
        return total

    def write(self, path) -> None:
        ids = {}
        rows = []
        for name, start, end, parent, trial, _, _ in self.spans:
            rows.append([name, start, end, parent, ids.setdefault(trial, len(ids)) if trial else None])
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "trial"], "spans": rows}, handle)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced run (counts exact, times in s)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_layer: dict[str, float] = defaultdict(float)
    apery_work = membership_bits = draws = shift_ops = bits_shifted = 0
    for i, s in enumerate(spans):
        name, args = s[NAME], s[ARGS]
        duration = s[END] - s[START]
        busy[name] += duration
        calls[name] += 1
        self_by_layer[tracer.layer[name]] += duration - child_time[i]
        if name.endswith(".apery_set"):
            gens, m = args
            apery_work += m * len({a % m for a in gens.elements} - {0})
        elif name == "semigroup.membership_table":
            membership_bits += args[1]
        elif name == "harness.sample_unconstrained":
            draws += s[RESULT].uniform_draws_consumed
        elif name == "harness.sample_bounded":
            draws += args[0].M
        elif name == "sumsets.add_sets":
            x, y = args
            if x.bits and y.bits and not (x.is_full or y.is_full):
                shifts = min(x.size, y.size)
                shift_ops += shifts
                bits_shifted += shifts * x.q

    per_trial = sorted(tracer.trial_seconds().values(), reverse=True)
    n = len(per_trial)
    substreams = sum(calls[f"{m}.substream"] for m in ("harness", "sampler", "sumsets"))
    return {
        "sampler.frobenius_calls_per_trial": calls["sampler.frobenius"] / max(n, 1),
        "sampler.frobenius_s": busy["sampler.frobenius"],
        "sampler.self_s": self_by_layer["sampler"],
        "sampler.draws": draws,
        "semigroup.apery_calls": calls["harness.apery_set"] + calls["semigroup.apery_set"],
        "semigroup.apery_s": busy["harness.apery_set"] + busy["semigroup.apery_set"],
        "semigroup.apery_work": apery_work,
        "semigroup.minimal_generators_s": busy["semigroup.minimal_generators"],
        "semigroup.membership_bits": membership_bits,
        "semigroup.invariants_s": busy["harness.invariants"],
        "harness.substreams_per_trial": substreams / max(n, 1),
        "harness.self_s": self_by_layer["harness"],
        "harness.trial_ms_p50": 1000 * statistics.median(per_trial) if n else 0.0,
        # the 11th slowest trial: the highest percentile with 10 trials beyond it
        "harness.trial_ms_tail": 1000 * per_trial[min(10, n - 1)] if n else 0.0,
        "harness.trials_traced": n,
        "sumsets.add_sets_calls": calls["sumsets.add_sets"],
        "sumsets.shift_ops": shift_ops,
        "sumsets.bits_shifted": bits_shifted,
        "sumsets.kfold_s": busy["sumsets.k_fold_sumset"],
        "rng.substreams": substreams,
        "cli.self_s": self_by_layer["cli"],
        "trace.spans": len(spans),
    }


COUNT_METRICS = (
    "sampler.frobenius_calls_per_trial", "sampler.draws", "semigroup.apery_calls",
    "semigroup.apery_work", "semigroup.membership_bits", "harness.substreams_per_trial",
    "harness.trials_traced", "sumsets.add_sets_calls", "sumsets.shift_ops",
    "sumsets.bits_shifted", "rng.substreams", "trace.spans",
)

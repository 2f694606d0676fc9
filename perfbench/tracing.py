"""Timing wrappers around the rtfdoa functions each layer exposes.

Hooks are named by the dotted path where the function or method is
defined. Installing a hook wraps the function once and rebinds every
alias of it in the loaded ``rtfdoa`` modules (``from .stft import
analyze`` leaves a second name in the importing module), or replaces the
method on its class. A hook whose target no longer exists is reported as
missing instead of failing the run.

Spans live in memory as ``[hook, parent, start, end, round, counts]``
lists and are turned into per-layer metrics once the run ends. Counters
read the call's arguments and result at the same boundary as the span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

# dimension of the whitened problem when the external microphone joins
# the four head microphones of the default geometry
EXT_DIM = 5


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_update_frame(args, kwargs, result):
    mask = np.asarray(_arg(args, kwargs, 2, "speech_mask"), dtype=bool)
    return {"speech_bins": int(np.count_nonzero(mask)), "bins": int(mask.size)}


def _count_refresh(args, kwargs, result):
    changed = args[2] if len(args) > 2 else kwargs.get("changed")
    n = args[0].n_bins if changed is None else int(np.count_nonzero(changed))
    return {"cw_refresh_bins": n}


def _valid_counter(name):
    def count(args, kwargs, result):
        valid = np.asarray(result[1], dtype=bool)
        return {f"valid.{name}": int(np.count_nonzero(valid)),
                f"bins.{name}": int(valid.size)}
    return count


def _count_cw(args, kwargs, result):
    name = "cw-ext" if args[0].dim == EXT_DIM else "cw-head"
    return _valid_counter(name)(args, kwargs, result)


def _count_costed(args, kwargs, result):
    return {"frames_costed": int(np.shape(_arg(args, kwargs, 0, "values"))[0])}


def _count_scored(args, kwargs, result):
    return {"frames_used": int(result.frames_scored)}


def _count_written(args, kwargs, result):
    return {"frames_used": int(_arg(args, kwargs, 1, "traj").n_frames)}


HOOKS = {
    "rtfdoa.simulate.render_components": None,
    "rtfdoa.stft.analyze": None,
    "rtfdoa.stft.read_wav": None,
    "rtfdoa.activity.spp": None,
    "rtfdoa.activity.oracle_labels_from_power": None,
    "rtfdoa.activity.oracle_labels": None,
    "rtfdoa.activity.read_labels": None,
    "rtfdoa.evaluate.oracle_label_grid": None,
    "rtfdoa.covariance.CovarianceTracker.update_frame": _count_update_frame,
    "rtfdoa.estimators.WhitenedTracker.refresh_noise": _count_refresh,
    "rtfdoa.estimators.WhitenedTracker.estimate": _count_cw,
    "rtfdoa.estimators.batch_sc": _valid_counter("sc"),
    "rtfdoa.estimators.batch_cs": _valid_counter("cs-head"),
    "rtfdoa.doa.cost_surface_frames": _count_costed,
    "rtfdoa.doa.argmin_directions": None,
    "rtfdoa.doa.load_database": None,
    "rtfdoa.pipeline.track_multi": None,
    "rtfdoa.evaluate.score": _count_scored,
    "rtfdoa.evaluate.run_sweep": None,
    "rtfdoa.evaluate.write_trajectory_csv": _count_written,
    "rtfdoa.cli.main": None,
}

ORACLE_LABELS = ("rtfdoa.evaluate.oracle_label_grid",
                 "rtfdoa.activity.oracle_labels_from_power",
                 "rtfdoa.activity.oracle_labels")
CLI_IO = ("rtfdoa.stft.read_wav", "rtfdoa.doa.load_database",
          "rtfdoa.activity.read_labels", "rtfdoa.evaluate.write_trajectory_csv")
TRACK = "rtfdoa.pipeline.track_multi"
UPDATE = "rtfdoa.covariance.CovarianceTracker.update_frame"
RENDER = "rtfdoa.simulate.render_components"
ESTIMATORS = ("sc", "cs-head", "cw-head", "cw-ext")

# (metric, unit, better) in report order; trace.* describe the tracer itself
LAYER_METRICS = (
    ("simulate.render_s", "s", "lower"),
    ("simulate.render_calls", "count", "lower"),
    ("simulate.cells_per_render", "ratio", "higher"),
    ("stft.analyze_s", "s", "lower"),
    ("stft.read_wav_s", "s", "lower"),
    ("activity.spp_s", "s", "lower"),
    ("activity.oracle_labels_s", "s", "lower"),
    ("activity.speech_bin_share", "ratio", "higher"),
    ("covariance.update_frame_s", "s", "lower"),
    ("covariance.update_frame_p99_us", "us", "lower"),
    ("estimators.cw_refresh_s", "s", "lower"),
    ("estimators.cw_estimate_s", "s", "lower"),
    ("estimators.cw_refresh_bins", "count", "lower"),
    ("estimators.sc_s", "s", "lower"),
    ("estimators.cs_s", "s", "lower"),
    *((f"estimators.valid_bin_share.{name}", "ratio", "higher")
      for name in ESTIMATORS),
    ("doa.cost_surface_s", "s", "lower"),
    ("doa.argmin_s", "s", "lower"),
    ("doa.frames_costed", "count", "lower"),
    ("doa.scored_frame_share", "ratio", "higher"),
    ("pipeline.track_multi_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.frame_p50_ms", "ms", "lower"),
    ("pipeline.frame_p99_ms", "ms", "lower"),
    ("evaluate.score_s", "s", "lower"),
    ("evaluate.run_sweep_self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.io_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_hooks", "count", "lower"),
)


def resolve(dotted: str):
    """Return (owner, attribute, object) for a dotted name, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        owner = None
        for attr in parts[cut:]:
            owner, obj = obj, getattr(obj, attr, None)
            if obj is None:
                return None
        return owner, parts[-1], obj
    return None


class Tracer:
    """Installs the hooks, records spans, and reduces them to metrics."""

    def __init__(self, hooks: dict = HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.round = 0
        self.startup_s: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, hook: str, func, counter):
        spans, stack, missing = self.spans, self._stack, self.missing
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [hook, stack[-1] if stack else -1, 0.0, 0.0, self.round, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, kwargs, result)
                except Exception:  # a changed signature loses the counter only
                    missing.add(f"{hook} (counter)")
            return result
        return wrapper

    def install(self) -> None:
        # resolve everything first: resolving imports modules whose aliases
        # must be rebound too
        found = {hook: resolve(hook) for hook in self.hooks}
        for hook, counter in self.hooks.items():
            if found[hook] is None or not callable(found[hook][2]):
                self.missing.add(hook)
                continue
            owner, attr, func = found[hook]
            wrapper = self._wrap(hook, func, counter)
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                if not inspect.isfunction(raw):
                    self.missing.add(hook)
                    continue
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, raw))
                continue
            for name, module in list(sys.modules.items()):
                if name != "rtfdoa" and not name.startswith("rtfdoa."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, func))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": sorted(self.missing),
                "startup_s": self.startup_s}

    def merge(self, data: dict, round_index: int) -> None:
        """Add spans recorded by another process as one round."""
        offset = len(self.spans)
        for hook, parent, start, end, _, counts in data["spans"]:
            self.spans.append([hook, parent + offset if parent >= 0 else -1,
                               start, end, round_index, counts])
        self.missing.update(data["missing"])
        self.startup_s.extend(data["startup_s"])

    # -- reduction ---------------------------------------------------------

    def metrics(self, rounds: list[int], overhead_s: float) -> dict:
        """Per-layer metrics; times are medians over rounds of per-round sums,
        counts are per round, distributions pool every call."""
        spans = [s for s in self.spans if s[4] in rounds]
        n_rounds = max(len(rounds), 1)
        by_hook: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[4] in rounds:
                by_hook.setdefault(s[0], []).append(i)

        def has_ancestor(i: int, hooks) -> bool:
            p = self.spans[i][1]
            while p >= 0:
                if self.spans[p][0] in hooks:
                    return True
                p = self.spans[p][1]
            return False

        def seconds(hooks) -> float:
            per_round = dict.fromkeys(rounds, 0.0)
            for hook in hooks:
                for i in by_hook.get(hook, ()):
                    if not has_ancestor(i, hooks):
                        s = self.spans[i]
                        per_round[s[4]] += s[3] - s[2]
            return statistics.median(per_round.values()) if per_round else 0.0

        def self_seconds(hook) -> float:
            per_round = dict.fromkeys(rounds, 0.0)
            children: dict[int, float] = {}
            for s in spans:
                if s[1] >= 0:
                    children[s[1]] = children.get(s[1], 0.0) + s[3] - s[2]
            for i in by_hook.get(hook, ()):
                s = self.spans[i]
                per_round[s[4]] += s[3] - s[2] - children.get(i, 0.0)
            return statistics.median(per_round.values()) if per_round else 0.0

        totals: dict[str, float] = {}
        for s in spans:
            for key, value in (s[5] or {}).items():
                totals[key] = totals.get(key, 0) + value

        def share(num: str, den: str) -> float:
            return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

        def count(hook) -> int:
            return len(by_hook.get(hook, ()))

        update_us = [1e6 * (self.spans[i][3] - self.spans[i][2])
                     for i in by_hook.get(UPDATE, ())]
        # one loop iteration of track_multi: from one update_frame call to
        # the next inside the same call (spp, recursion, estimator steps)
        starts: dict[int, list[float]] = {}
        for i in by_hook.get(UPDATE, ()):
            starts.setdefault(self.spans[i][1], []).append(self.spans[i][2])
        frame_ms = [1e3 * gap for t in by_hook.get(TRACK, ())
                    for gap in np.diff(starts.get(t, []))]

        def pct(values, q) -> float:
            return float(np.percentile(values, q)) if len(values) else 0.0

        out = {
            "simulate.render_s": seconds([RENDER]),
            "simulate.render_calls": count(RENDER) / n_rounds,
            "simulate.cells_per_render": (
                sum(1 for i in by_hook.get(TRACK, ())
                    if has_ancestor(i, ["rtfdoa.evaluate.run_sweep"]))
                / count(RENDER) if count(RENDER) else 0.0),
            "stft.analyze_s": seconds(["rtfdoa.stft.analyze"]),
            "stft.read_wav_s": seconds(["rtfdoa.stft.read_wav"]),
            "activity.spp_s": seconds(["rtfdoa.activity.spp"]),
            "activity.oracle_labels_s": seconds(ORACLE_LABELS),
            "activity.speech_bin_share": share("speech_bins", "bins"),
            "covariance.update_frame_s": seconds([UPDATE]),
            "covariance.update_frame_p99_us": pct(update_us, 99),
            "estimators.cw_refresh_s": seconds(
                ["rtfdoa.estimators.WhitenedTracker.refresh_noise"]),
            "estimators.cw_estimate_s": seconds(
                ["rtfdoa.estimators.WhitenedTracker.estimate"]),
            "estimators.cw_refresh_bins": totals.get("cw_refresh_bins", 0) / n_rounds,
            "estimators.sc_s": seconds(["rtfdoa.estimators.batch_sc"]),
            "estimators.cs_s": seconds(["rtfdoa.estimators.batch_cs"]),
            **{f"estimators.valid_bin_share.{name}": share(f"valid.{name}",
                                                           f"bins.{name}")
               for name in ESTIMATORS},
            "doa.cost_surface_s": seconds(["rtfdoa.doa.cost_surface_frames"]),
            "doa.argmin_s": seconds(["rtfdoa.doa.argmin_directions"]),
            "doa.frames_costed": totals.get("frames_costed", 0) / n_rounds,
            "doa.scored_frame_share": share("frames_used", "frames_costed"),
            "pipeline.track_multi_s": seconds([TRACK]),
            "pipeline.self_s": self_seconds(TRACK),
            "pipeline.frame_p50_ms": pct(frame_ms, 50),
            "pipeline.frame_p99_ms": pct(frame_ms, 99),
            "evaluate.score_s": seconds(["rtfdoa.evaluate.score"]),
            "evaluate.run_sweep_self_s": self_seconds("rtfdoa.evaluate.run_sweep"),
            "cli.startup_s": (statistics.median(self.startup_s)
                              if self.startup_s else 0.0),
            "cli.io_s": seconds(CLI_IO),
            "trace.overhead_s": overhead_s,
            "trace.missing_hooks": len(self.missing),
        }
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        return {name: {"value": float(out[name]), "unit": units[name]}
                for name, _, _ in LAYER_METRICS}

"""Spans around the calls into each kmpoly layer, for the traced run.

The wrappers are installed where each name is looked up at call time, not
only where it is defined: ``plm`` imports the sweep steps by name,
``PosteriorDraws.curves`` calls ``eval_f`` through the ``sampler``
namespace, ``select_K`` calls ``run_chain`` and ``dic_parts`` through the
``summaries`` namespace, and ``solve_xi_box`` and the ``chainio``
functions are imported lazily from their own modules.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from stats import self_times, tail_value

# layers whose per-call distribution is reported as well as their totals
DISTRIBUTED = ("sampler.mh_mu", "sampler.mh_h", "sampler.gibbs_xi",
               "sampler.gibbs_sigma", "plm.gibbs_beta")


def _count_mh_mu(counts, out):
    state, accepted = out
    counts["mh_mu.accepted"] += accepted
    counts["mh_mu.proposed"] += state.params.grid.n_blocks


def _count_mh_h(counts, out):
    counts["mh_h.accepted"] += out[1]
    counts["mh_h.proposed"] += 1


def _count_fallbacks(counts, out):
    counts["xi_fallbacks"] += out.accept.get("xi_fallbacks", 0)


def targets(kmpoly):
    """(span name, [(owner, attribute)], counter hook) for every layer."""
    core, sampler, summaries = kmpoly.core, kmpoly.sampler, kmpoly.summaries
    plm, sieve, chainio = kmpoly.plm, kmpoly.sieve, kmpoly.chainio
    both = (sampler, plm)
    return [
        ("sampler.mh_mu", [(m, "mh_mu") for m in both], _count_mh_mu),
        ("sampler.mh_h", [(m, "mh_h") for m in both], _count_mh_h),
        ("sampler.gibbs_xi", [(m, "gibbs_xi") for m in both], None),
        ("sampler.gibbs_sigma", [(m, "gibbs_sigma") for m in both], None),
        ("sampler.ChainState.init", [(sampler.ChainState, "__init__")], None),
        ("sieve.solve_xi_box", [(sieve, "solve_xi_box")], None),
        ("sampler.run_chain", [(sampler, "run_chain"), (summaries, "run_chain")],
         _count_fallbacks),
        ("sampler.PosteriorDraws.curves", [(sampler.PosteriorDraws, "curves")], None),
        ("core.eval_f", [(sampler, "eval_f"), (core, "eval_f")], None),
        ("core.monomial_tensor", [(core, "monomial_tensor"),
                                  (sampler, "monomial_tensor")], None),
        ("summaries.pointwise_band", [(summaries, "pointwise_band")], None),
        ("summaries.l2_credible_set", [(summaries, "l2_credible_set")], None),
        ("summaries.dic_parts", [(summaries, "dic_parts")], None),
        ("summaries.predict", [(summaries, "predict")], None),
        ("summaries.select_K", [(summaries, "select_K")], None),
        ("chainio.save_draws", [(chainio, "save_draws")], None),
        ("chainio.load_draws", [(chainio, "load_draws")], None),
        ("plm.gibbs_beta", [(plm, "gibbs_beta")], None),
        ("plm.run_plm_chain", [(plm, "run_plm_chain")], _count_fallbacks),
    ]


class Recorder:
    """Collects spans ``(name, start, end, parent, phase)`` and counters.

    ``phase`` is "setup" or "pass"; per-layer figures are the set-up spans
    plus the mean over traced passes, so a run that fits more passes into
    its time does not report more work.
    """

    def __init__(self, kmpoly):
        self.targets = targets(kmpoly)
        self.spans = []
        self.counts = {"setup": Counter(), "pass": Counter()}
        self.traced_passes = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, hook, phase):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, phase)
            if hook is not None:
                hook(self.counts[phase], out)
            return out
        return wrapper

    def install(self, phase):
        for name, sites, hook in self.targets:
            for owner, attr in sites:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, hook, phase))
                self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self):
        """Per-layer metrics: set-up plus the mean traced pass."""
        if not self.traced_passes:
            raise RuntimeError("no traced pass was recorded")
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        per_pass = 1.0 / self.traced_passes
        out = {}
        for name, _, _ in self.targets:
            calls = total = own = 0.0
            durations = []
            for span, own_s in zip(self.spans, selfs):
                if span[0] != name:
                    continue
                w = 1.0 if span[4] == "setup" else per_pass
                calls += w
                total += w * (span[2] - span[1])
                own += w * own_s
                durations.append(span[2] - span[1])
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
            if name in DISTRIBUTED:
                ms = np.asarray(durations) * 1e3
                out[f"{name}.p50_ms"] = (float(np.median(ms)) if durations else 0.0, "ms")
                out[f"{name}.tail_ms"] = (tail_value(ms) if durations else 0.0, "ms")
        c = Counter()
        for key in self.counts["setup"].keys() | self.counts["pass"].keys():
            c[key] = self.counts["setup"][key] + per_pass * self.counts["pass"][key]
        out["sampler.mh_mu.accept_ratio"] = (
            c["mh_mu.accepted"] / c["mh_mu.proposed"] if c["mh_mu.proposed"] else 0.0,
            "ratio")
        out["sampler.mh_h.accept_ratio"] = (
            c["mh_h.accepted"] / c["mh_h.proposed"] if c["mh_h.proposed"] else 0.0,
            "ratio")
        out["sampler.xi_fallbacks"] = (float(c["xi_fallbacks"]), "count")
        return out

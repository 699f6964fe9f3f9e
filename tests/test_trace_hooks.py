"""The benchmark's tracer wraps package attributes from outside the
package (``bench/tracing.py``); these tests keep every attribute it
patches defined on the owner it patches, and exercise one install."""

import sys
from pathlib import Path

import numpy as np

from bernshift import Configuration, SiteSet, Word, ball, bit_alphabet, config, freegroup
from bernshift import coinduced_act, from_coset_config, to_coset_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_every_traced_attribute_is_defined_on_its_owner():
    for _, owner, attr, _ in tracing.SPANS + tracing.COUNTERS:
        if isinstance(owner, type):
            assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    assert callable(freegroup.translated_sites.cache_info)


def test_every_siteset_construction_runs_finish_init(monkeypatch):
    runs = []
    real = SiteSet._finish_init
    monkeypatch.setattr(SiteSet, "_finish_init", lambda self, codes: runs.append(1) or real(self, codes))
    b = ball(2)
    x = Configuration(bit_alphabet(1), b, [0] * len(b))
    builds = (
        lambda: ball(1),
        lambda: SiteSet([Word.parse("ab")]),
        lambda: SiteSet.from_codes(b.codes),
        lambda: SiteSet([]),
        lambda: b.times([Word.parse("a")]),
        lambda: freegroup.translated_sites(b, Word.parse("BBABA")),
        lambda: to_coset_config(x),  # the representatives' site set
        # a merge that sorts the codes of its slots (a split merges back onto x's own sites)
        lambda: from_coset_config(coinduced_act(Word.parse("b"), to_coset_config(x))),
    )
    for build in builds:
        before = len(runs)
        build()
        assert len(runs) > before


def test_an_installed_tracer_counts_and_restores():
    originals = {attr: SiteSet.__dict__[attr] for attr in ("_finish_init", "neighbor_indices")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x = Configuration(bit_alphabet(1), ball(3), list(np.arange(53) % 2))
        config.translate(Word.parse("abAAB"), x)
        ball(4).neighbor_indices(Word.parse("b"))
        config.restrict(x, ball(2))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["freegroup.tables"]["calls"] >= 2 and summary["config.translate"]["calls"] == 1
    assert tracer.counts["freegroup.siteset_builds"] >= 3
    assert tracer.counts["config.configuration_builds"] >= 3
    assert tracer.counts["freegroup.mul_calls"] == 0
    assert all(SiteSet.__dict__[attr] is fn for attr, fn in originals.items())

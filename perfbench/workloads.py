"""The benchmark's three seeded workloads and the output check behind each.

A workload sets up its inputs and gallery from the seed, then runs one
operation at a time (closed loop, one client). Set-up times itself in steps
on the ``clock`` it is given (see ``speed.py``). Inputs come from
``fpfusion.synthetic``; the program under test receives only
``MinutiaeTemplate`` objects (or, for ``enroll``, ``.mnt`` files).

Each workload also names the outputs its run produces, as (key, digest)
pairs: the sha256 of the ``write_results`` rows of all four channels plus
the min-rank fusion rank of the mate. The recorded references in
``reference/`` hold the digests of every key for a set of seeds.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from fpfusion.evaluation import Gallery, identify_all, write_results
from fpfusion.synthetic import (
    PerturbConfig,
    SynthConfig,
    generate_finger,
    generate_gallery,
    perturb_to_latent,
)
from fpfusion.templates import load_template, save_template

from speed import NullClock
from tracer import NullTracer

CHANNELS = ("mcc", "emb", "feature", "score")
NULL = NullTracer()


def digest(results: dict, mate_id: str, work: Path) -> str:
    """sha256 of one query's ranked candidates in every channel, 6-decimal scores."""
    path = work / "digest.csv"
    write_results([results[ch] for ch in CHANNELS], path)
    ranks = [results[ch].rank_of_mate for ch in ("mcc", "emb")]
    fused = min((r for r in ranks if r is not None), default=None)
    text = path.read_bytes() + f"rank,{mate_id},{fused}\n".encode()
    return hashlib.sha256(text).hexdigest()[:20]


@dataclass(frozen=True)
class Identify:
    """One operation: ``prepare_query`` + ``identify_all`` for one query.

    Query ``i`` (of Q) perturbs gallery finger ``i mod G`` with
    ``default_rng([seed, i, 1])``, so the first G are exactly the queries of
    ``fpfusion benchmark``. Operation ``k`` runs query ``k mod Q``.
    """

    synth: SynthConfig
    perturb: PerturbConfig
    sizes: dict  # size name -> (gallery fingers G, distinct queries Q)

    def setup(self, seed: int, size: str, work: Path, tr, clock) -> SimpleNamespace:
        g, q = self.sizes[size]
        with clock.timed(), tr.span("synthetic"):
            fingers = generate_gallery(replace(self.synth, seed=seed, n_fingers=g))
            sources = [fingers[i % g] for i in range(q)]
            queries = [
                perturb_to_latent(
                    f, np.random.default_rng([seed, i, 1]), self.perturb, query_id=f"q{i:04d}"
                )[0]
                for i, f in enumerate(sources)
            ]
        gallery = Gallery()
        for f in fingers:
            with clock.timed():
                gallery.enroll(f)
        return SimpleNamespace(
            gallery=gallery, queries=queries, mates=[f.id for f in sources], work=work
        )

    def twin(self, st):
        return st  # operations do not change the state

    def covering_ops(self, st) -> int:
        return len(st.queries)

    def before(self, st, k: int) -> None:
        pass

    def op(self, st, k: int, tr):
        i = k % len(st.queries)
        entry = st.gallery.prepare_query(st.queries[i])
        with tr.span("evaluation.identify_all"):
            return identify_all(st.gallery, entry, mate_id=st.mates[i])

    def after(self, st, k: int, result) -> dict:
        i = k % len(st.queries)
        return {i: digest(result, st.mates[i], st.work)}

    def finish(self, st, k: int) -> dict:
        return {}


@dataclass(frozen=True)
class Enroll:
    """One operation: ``load_template`` of a ``.mnt`` file, then ``Gallery.enroll``.

    A round enrolls N templates into a copy of a gallery pre-filled during
    set-up; rounds repeat until the run ends. After the first full round,
    fixed probe queries run untimed against the gallery and are checked.
    """

    sizes: dict  # size name -> (pre-filled fingers, templates per round, probes)

    def setup(self, seed: int, size: str, work: Path, tr, clock) -> SimpleNamespace:
        n_prefill, n_new, n_probes = self.sizes[size]
        cfg = SynthConfig(seed=seed, n_fingers=n_prefill)
        with clock.timed(), tr.span("synthetic"):
            prefill = generate_gallery(cfg)
        with clock.timed(), tr.span("synthetic"):
            new = [
                generate_finger(np.random.default_rng([seed, j, 2]), cfg, f"e{j:04d}")
                for j in range(n_new)
            ]
            sources = [new[0], new[-1], prefill[0]][:n_probes]
            probes = [
                perturb_to_latent(s, np.random.default_rng([seed, p, 3]), query_id=f"p{p}")[0]
                for p, s in enumerate(sources)
            ]
        with clock.timed():
            paths = []
            for t in new:
                paths.append(work / f"{t.id}.mnt")
                save_template(t, paths[-1])
        base = Gallery()
        for t in prefill:
            with clock.timed():
                base.enroll(t)
        return SimpleNamespace(
            base=base,
            gallery=None,
            paths=paths,
            probes=probes,
            mates=[s.id for s in sources],
            work=work,
        )

    def twin(self, st):
        return copy.copy(st)  # shares the inputs, gets its own gallery

    def covering_ops(self, st) -> int:
        return len(st.paths)

    def before(self, st, k: int) -> None:
        if k % len(st.paths) == 0:
            st.gallery = None  # free the last round before copying the next
            st.gallery = copy.deepcopy(st.base)

    def op(self, st, k: int, tr):
        with tr.span("templates.load_template"):
            t = load_template(st.paths[k % len(st.paths)])
        st.gallery.enroll(t)

    def after(self, st, k: int, result) -> dict:
        return self._probe(st) if k == len(st.paths) - 1 else {}

    def finish(self, st, k: int) -> dict:
        """Complete the first round untimed if the run ended inside it."""
        if k >= len(st.paths):
            return {}
        for j in range(k, len(st.paths)):
            self.before(st, j)
            self.op(st, j, NULL)
        return self._probe(st)

    def _probe(self, st) -> dict:
        out = {}
        for p, (probe, mate) in enumerate(zip(st.probes, st.mates)):
            entry = st.gallery.prepare_query(probe)
            out[p] = digest(identify_all(st.gallery, entry, mate_id=mate), mate, st.work)
        return out


WORKLOADS = {
    "latent-1n": Identify(SynthConfig(), PerturbConfig(), {"full": (100, 100), "smoke": (8, 16)}),
    "dense-1n": Identify(
        SynthConfig(min_minutiae=80, max_minutiae=120, extent=(700.0, 700.0)),
        PerturbConfig(
            keep_min=0.85,
            keep_max=0.95,
            crop_radius_min=600.0,
            crop_radius_max=700.0,
            spurious_mean=5.0,
        ),
        {"full": (40, 40), "smoke": (3, 6)},
    ),
    "enroll": Enroll({"full": (100, 300, 3), "smoke": (8, 20, 2)}),
}


def record_outputs(name: str, size: str, seed: int, work: Path) -> list:
    """Digests of every output key of a workload, in key order, untimed."""
    wl = WORKLOADS[name]
    st = wl.setup(seed, size, work, NULL, NullClock())
    n = wl.covering_ops(st)
    out = {}
    for k in range(n):
        wl.before(st, k)
        out.update(wl.after(st, k, wl.op(st, k, NULL)))
    out.update(wl.finish(st, n))
    return [out[key] for key in sorted(out)]

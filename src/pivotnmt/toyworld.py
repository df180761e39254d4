"""Deterministic synthetic language triples for desk-scale experiments.

Three toy languages over a shared index space: token i surfaces as s<i>,
p<i>, or t<i>. A seeded fraction of indices surface as the same word x<i> in
both the source and pivot languages, mimicking shared tokens between related
languages. Translation is the per-index bijection plus a deterministic local
reordering: languages carry an order class, and translating across classes
swaps adjacent token pairs. With the default classes (src=piv=0, tgt=1) this
makes source->pivot order-preserving, x->target adjacent-swapped, and the
two-step source->pivot->target composition exactly equal to the direct
source->target reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .data import CorpusError, ParallelCorpus
from .fileio import write_atomic

LANG_PREFIX = {"src": "s", "piv": "p", "tgt": "t"}
SHARED_PREFIX = "x"


@dataclass
class ToyWorldSpec:
    base_vocab_size: int = 40
    sentence_length_range: tuple = (3, 12)
    order_class: dict = field(default_factory=lambda: {"src": 0, "piv": 0, "tgt": 1})
    shared_token_fraction: float = 0.5
    n_src_piv: int = 20000
    n_piv_tgt: int = 20000
    n_src_tgt: int = 500
    n_mono_piv: int = 5000
    n_val: int = 400
    n_test: int = 800
    seed: int = 0

    def __post_init__(self):
        # JSON gives lists; hold tuples so equal specs compare equal
        self.sentence_length_range = tuple(self.sentence_length_range)
        lo, hi = self.sentence_length_range
        if lo < 1 or hi < lo:
            raise CorpusError(f"bad sentence length range ({lo}, {hi})")
        if self.base_vocab_size < 2:
            raise CorpusError("base vocabulary too small")
        if not 0.0 <= self.shared_token_fraction <= 1.0:
            raise CorpusError("shared_token_fraction must lie in [0, 1]")


class ToyWorld:
    """Surface-form tables and reference translations for one seeded world."""

    def __init__(self, spec: ToyWorldSpec):
        self.spec = spec
        rng = np.random.default_rng([spec.seed, 0x70F])
        n_shared = int(round(spec.shared_token_fraction * spec.base_vocab_size))
        shared = set(rng.permutation(spec.base_vocab_size)[:n_shared].tolist())
        self._surface = {}
        for lang, prefix in LANG_PREFIX.items():
            forms = []
            for i in range(spec.base_vocab_size):
                if i in shared and lang in ("src", "piv"):
                    forms.append(f"{SHARED_PREFIX}{i}")
                else:
                    forms.append(f"{prefix}{i}")
            self._surface[lang] = forms
        self._index = {
            lang: {form: i for i, form in enumerate(forms)}
            for lang, forms in self._surface.items()
        }

    def token(self, lang: str, index: int) -> str:
        return self._surface[lang][index]

    def translate(self, tokens, src_lang: str, tgt_lang: str) -> list:
        """Reference translation: index bijection plus order-class reordering."""
        idx = [self._index[src_lang][t] for t in tokens]
        if self.spec.order_class[src_lang] != self.spec.order_class[tgt_lang]:
            idx = _swap_adjacent(idx)
        return [self._surface[tgt_lang][i] for i in idx]

    def sample_sentence(self, lang: str, rng: np.random.Generator) -> list:
        lo, hi = self.spec.sentence_length_range
        length = int(rng.integers(lo, hi + 1))
        ids = rng.integers(0, self.spec.base_vocab_size, size=length)
        return [self._surface[lang][i] for i in ids]

    def sample_pairs(self, src_lang, tgt_lang, n, stream) -> ParallelCorpus:
        rng = np.random.default_rng([self.spec.seed, stream])
        pairs = []
        for _ in range(n):
            s = self.sample_sentence(src_lang, rng)
            pairs.append((s, self.translate(s, src_lang, tgt_lang)))
        return ParallelCorpus(pairs=pairs, src_lang=src_lang, tgt_lang=tgt_lang)


def _swap_adjacent(seq: list) -> list:
    out = list(seq)
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


# stream ids keep every corpus draw on an independent, reproducible RNG stream
_STREAMS = {
    "src-piv": 1,
    "piv-tgt": 2,
    "src-tgt": 3,
    "mono-piv": 4,
    "src-piv.val": 5,
    "piv-tgt.val": 6,
    "src-tgt.val": 7,
    "src-tgt.test": 8,
}


def generate_toy_corpora(spec: ToyWorldSpec) -> dict:
    """All corpora for one world: train/val splits, test set, pivot monolingual."""
    world = ToyWorld(spec)
    out = {
        "src-piv": world.sample_pairs("src", "piv", spec.n_src_piv, _STREAMS["src-piv"]),
        "piv-tgt": world.sample_pairs("piv", "tgt", spec.n_piv_tgt, _STREAMS["piv-tgt"]),
        "src-tgt": world.sample_pairs("src", "tgt", spec.n_src_tgt, _STREAMS["src-tgt"]),
        "src-piv.val": world.sample_pairs("src", "piv", spec.n_val, _STREAMS["src-piv.val"]),
        "piv-tgt.val": world.sample_pairs("piv", "tgt", spec.n_val, _STREAMS["piv-tgt.val"]),
        "src-tgt.val": world.sample_pairs("src", "tgt", spec.n_val, _STREAMS["src-tgt.val"]),
        "src-tgt.test": world.sample_pairs("src", "tgt", spec.n_test, _STREAMS["src-tgt.test"]),
    }
    rng = np.random.default_rng([spec.seed, _STREAMS["mono-piv"]])
    out["mono-piv"] = [world.sample_sentence("piv", rng) for _ in range(spec.n_mono_piv)]
    return out


def write_toy_corpora(spec: ToyWorldSpec, out_dir) -> dict:
    """Generate and write corpus files plus a manifest with seeds and sizes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpora = generate_toy_corpora(spec)
    manifest = {"seed": spec.seed, "spec": asdict(spec), "files": {}, "sizes": {}}
    for name, corpus in corpora.items():
        if name == "mono-piv":
            path = out_dir / "mono-piv.piv"
            write_atomic(path, "".join(" ".join(line) + "\n" for line in corpus))
            manifest["files"][name] = [path.name]
            manifest["sizes"][name] = len(corpus)
            continue
        s_lang, t_lang = corpus.src_lang, corpus.tgt_lang
        sp = out_dir / f"{name}.{s_lang}"
        tp = out_dir / f"{name}.{t_lang}"
        corpus.save(sp, tp)
        manifest["files"][name] = [sp.name, tp.name]
        manifest["sizes"][name] = len(corpus)
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return corpora

"""Byte pair encoding and vocabulary construction.

Supports the two subword regimes used by the training recipes: one BPE model
per language, or a joint model learned over the concatenation of two
languages' text so that the encoder side shares a merge table.

Word representation: a word is split into characters followed by a separate
end-of-word marker symbol "</w>"; merges may absorb the marker (producing
symbols like "w</w>"). Emitted tokens always carry the marker fused onto the
final symbol of the word, so "low" with a single ("l","o") merge is encoded
as ["lo", "w</w>"].
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from .fileio import write_atomic

END_OF_WORD = "</w>"

PAD = "<pad>"
BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BLANK = "<BLANK>"

CORE_SPECIALS = (PAD, BOS, EOS, UNK)


class BpeError(Exception):
    pass


class HashMismatchError(Exception):
    """Artifacts that must share a vocabulary carry different content hashes."""


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (END_OF_WORD,)


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    left, right = pair
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


@dataclass
class BpeModel:
    """Ordered merge table plus the languages it was learned on."""

    merges: list[tuple[str, str]]
    merge_count: int
    languages: tuple[str, ...] = ()
    _ranks: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise BpeError("duplicate merge pairs in model")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    def segment_word(self, word: str) -> list[str]:
        """Apply merges to one word, in learned order; returns fused tokens."""
        cached = self._cache.get(word)
        if cached is not None:
            return list(cached)
        symbols = _word_symbols(word)
        while len(symbols) > 1:
            best = None
            best_rank = None
            for a, b in zip(symbols, symbols[1:]):
                r = self._ranks.get((a, b))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
                    best = (a, b)
            if best is None:
                break
            symbols = _merge_word(symbols, best)
        toks = list(symbols)
        # fuse a dangling end-of-word marker onto the last real symbol
        if len(toks) > 1 and toks[-1] == END_OF_WORD:
            toks = toks[:-2] + [toks[-2] + END_OF_WORD]
        self._cache[word] = tuple(toks)
        return toks

    def save(self, path):
        lines = [f"bpe-v1 {self.merge_count}"] + [f"{a} {b}" for a, b in self.merges]
        write_atomic(path, "".join(l + "\n" for l in lines))

    @classmethod
    def load(cls, path) -> "BpeModel":
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split()
            if len(header) != 2 or header[0] != "bpe-v1":
                raise BpeError(f"bad BPE file header in {path}")
            merge_count = int(header[1])
            merges = []
            for line in f:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != 2:
                    raise BpeError(f"bad merge line {line!r} in {path}")
                merges.append((parts[0], parts[1]))
        return cls(merges=merges, merge_count=merge_count)


def learn_bpe(lines, merge_count: int, languages: tuple[str, ...] = ()) -> BpeModel:
    """Learn greedy most-frequent-pair merges over whitespace-split words.

    Frequency ties break lexicographically on the (left, right) pair, which
    makes learning deterministic.
    """
    if merge_count < 0:
        raise BpeError("merge_count must be >= 0")
    word_freq = Counter()
    for line in lines:
        for word in line.split():
            word_freq[word] += 1
    if not word_freq:
        raise BpeError("cannot learn BPE from an empty corpus")

    words = {w: _word_symbols(w) for w in word_freq}
    merges: list[tuple[str, str]] = []
    for _ in range(merge_count):
        pair_freq = Counter()
        for w, symbols in words.items():
            freq = word_freq[w]
            for a, b in zip(symbols, symbols[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        best = min(pair_freq.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        words = {w: _merge_word(s, best) for w, s in words.items()}
    return BpeModel(merges=merges, merge_count=merge_count, languages=tuple(languages))


def apply_bpe(model: BpeModel, line: str) -> list[str]:
    """Segment one line of text into subword tokens."""
    out: list[str] = []
    for word in line.split():
        out.extend(model.segment_word(word))
    return out


def detokenize(tokens) -> str:
    """Undo BPE segmentation: fuse subwords and restore word boundaries."""
    text = "".join(tokens)
    return text.replace(END_OF_WORD, " ").strip()


@dataclass
class Vocabulary:
    """Bijective token<->id map with a fixed special block at the front.

    Specials are, in order: pad, bos, eos, unk, optionally <BLANK> (present
    only when noise is enabled for the owning corpus), then one <2xx> tag per
    language for multilingual targets.
    """

    tokens: list[str]
    n_special: int
    _ids: dict = field(default_factory=dict, repr=False)
    _hash: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise BpeError("vocabulary tokens are not unique")
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        for sp in CORE_SPECIALS:
            if sp not in self._ids:
                raise BpeError(f"vocabulary missing special token {sp}")
        h = hashlib.sha256()
        for t in self.tokens:
            h.update(t.encode("utf-8"))
            h.update(b"\n")
        self._hash = h.hexdigest()

    def __len__(self):
        return len(self.tokens)

    @property
    def pad_id(self) -> int:
        return self._ids[PAD]

    @property
    def bos_id(self) -> int:
        return self._ids[BOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    @property
    def unk_id(self) -> int:
        return self._ids[UNK]

    @property
    def blank_id(self) -> int | None:
        return self._ids.get(BLANK)

    def tag_id(self, language: str) -> int:
        tag = f"<2{language}>"
        if tag not in self._ids:
            raise BpeError(f"vocabulary has no target-language tag {tag}")
        return self._ids[tag]

    def has_tag(self, language: str) -> bool:
        return f"<2{language}>" in self._ids

    def encode(self, tokens) -> list[int]:
        unk = self.unk_id
        return [self._ids.get(t, unk) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def content_hash(self) -> str:
        """SHA-256 of the tokens, computed once: like the id map, it treats
        the tokens as fixed after construction."""
        return self._hash

    def save(self, path):
        header = f"# pivotnmt vocab: {self.n_special} specials on lines 0..{self.n_special - 1}"
        write_atomic(path, "".join(l + "\n" for l in [header, *self.tokens]))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            if not first.startswith("#"):
                raise BpeError(f"vocabulary file {path} is missing its header comment")
            n_special = int(first.split(":")[1].split()[0])
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens=tokens, n_special=n_special)


def build_vocab(
    segmented_corpora,
    include_blank: bool = False,
    language_tags: tuple[str, ...] = (),
) -> Vocabulary:
    """Frequency-sorted vocabulary after the reserved special block.

    Equal-frequency tokens order lexicographically so construction is
    deterministic.
    """
    specials = list(CORE_SPECIALS)
    if include_blank:
        specials.append(BLANK)
    specials.extend(f"<2{lang}>" for lang in sorted(language_tags))

    freq = Counter()
    for corpus in segmented_corpora:
        for tokens in corpus:
            freq.update(tokens)
    for sp in specials:
        freq.pop(sp, None)
    ordered = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(tokens=specials + [t for t, _ in ordered], n_special=len(specials))

"""Pronunciation lexicon: word -> phone sequences.

Real lexicons (CMUdict etc.) map spelling to phones with largely
letter-driven regularity.  The generator below mirrors that: each
letter maps deterministically to a phone (with a seeded scramble), so
longer words get longer pronunciations, similar spellings get similar
pronunciations, and occasional pronunciation variants are added — the
properties that shape the AM graph's size and branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.am.phones import PhoneInventory

Pronunciation = tuple[str, ...]


@dataclass
class Lexicon:
    """Pronunciations for every word in the vocabulary."""

    phones: PhoneInventory
    entries: dict[str, list[Pronunciation]] = field(default_factory=dict)

    def add(self, word: str, pronunciation: Pronunciation) -> None:
        if not pronunciation:
            raise ValueError(f"empty pronunciation for {word!r}")
        for phone in pronunciation:
            if phone not in self.phones.real_phones():
                raise ValueError(f"unknown phone {phone!r} in {word!r}")
        variants = self.entries.setdefault(word, [])
        if pronunciation not in variants:
            variants.append(pronunciation)

    def pronunciations(self, word: str) -> list[Pronunciation]:
        return self.entries[word]

    def primary(self, word: str) -> Pronunciation:
        return self.entries[word][0]

    @property
    def words(self) -> list[str]:
        return list(self.entries)

    @property
    def num_pronunciations(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def avg_pronunciation_len(self) -> float:
        total = sum(len(p) for v in self.entries.values() for p in v)
        count = self.num_pronunciations
        return total / count if count else 0.0

    def __contains__(self, word: str) -> bool:
        return word in self.entries


def generate_lexicon(
    vocabulary: list[str],
    phones: PhoneInventory,
    rng: np.random.Generator,
    variant_probability: float = 0.08,
) -> Lexicon:
    """Build a lexicon with letter-driven pronunciations.

    Args:
        vocabulary: Words to cover.
        phones: Phone inventory to draw from.
        rng: Seeded generator; the letter->phone map is drawn from it.
        variant_probability: Chance a word receives a second
            pronunciation (one phone substituted), as real lexicons do.
    """
    real = phones.real_phones()
    letters = "abcdefghijklmnopqrstuvwxyz"
    letter_map = {
        letter: real[int(rng.integers(0, len(real)))] for letter in letters
    }
    lexicon = Lexicon(phones=phones)
    for word in vocabulary:
        pron = tuple(letter_map[ch] for ch in word if ch in letter_map)
        if not pron:
            pron = (real[int(rng.integers(0, len(real)))],)
        lexicon.add(word, pron)
        if rng.random() < variant_probability and len(pron) > 1:
            variant = list(pron)
            pos = int(rng.integers(0, len(variant)))
            variant[pos] = real[int(rng.integers(0, len(real)))]
            lexicon.add(word, tuple(variant))
    return lexicon

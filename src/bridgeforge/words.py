"""Free-group word calculus over the two-letter alphabet {a, b}.

A word is a tuple of nonzero ints: 1 = a, -1 = a^-1, 2 = b, -2 = b^-1.
The plain-text syntax used by the CLI and JSON reports writes ``a A b B``
for those four letters, so ``"abAB"`` is the commutator a b a^-1 b^-1;
parsing and printing round-trip bit-exactly.

An S-sequence is the tuple of run lengths of the maximal constant-sign
blocks of a reduced word; the cyclic variant merges the first and last
block when their signs agree, into its first entry.
"""

from __future__ import annotations

from operator import add, eq, neg

Word = tuple[int, ...]

_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}
_LETTER = {v: k for k, v in _CHAR.items()}


def parse_word(text: str) -> Word:
    """Parse ``a/A/b/B`` text into a word tuple."""
    try:
        return tuple(_LETTER[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad letter {exc.args[0]!r}; expected one of a A b B") from None


def word_str(word) -> str:
    """Inverse of :func:`parse_word`."""
    return "".join(map(_CHAR.__getitem__, word))


def inverse(word) -> Word:
    return tuple(map(neg, reversed(word)))


def concat(*parts) -> Word:
    out = []
    for part in parts:
        out.extend(part)
    return tuple(out)


def letter_power(letter: int, k: int) -> Word:
    """The word letter^k (empty for k = 0)."""
    if k >= 0:
        return (letter,) * k
    return (-letter,) * (-k)


def free_reduce(word) -> Word:
    """Freely reduce a word by cancelling adjacent inverse pairs."""
    out: list[int] = []
    push = out.append
    pop = out.pop
    for x in word:
        if out and out[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(out)


def is_reduced(word) -> bool:
    return 0 not in map(add, word, word[1:])  # x and -x add up to 0


def is_cyclically_reduced(word) -> bool:
    return is_reduced(word) and (len(word) < 2 or word[0] != -word[-1])


def alt_power(x, y, k: int) -> Word:
    """Alternating product of the words x and y with k factors.

    k factors drawn alternately from x and y starting with x; negative k
    gives the formal inverse, k = 0 the empty word.  No free reduction is
    performed.
    """
    if k == 0:
        return ()
    if k < 0:
        return inverse(alt_power(x, y, -k))
    pair = concat(x, y)
    return concat(pair * (k // 2), x if k % 2 else ())


def apply_f(word) -> Word:
    """Letterwise substitution a -> b^-1, b -> a^-1 (an involution)."""
    return tuple([x - 3 if x > 0 else x + 3 for x in word])


def s_sequence(word) -> tuple[int, ...]:
    """Run lengths of the maximal constant-sign blocks of a nonempty word."""
    if not word:
        raise ValueError("S-sequence of the empty word is undefined")
    runs = []
    cur = word[0] > 0
    length = 0
    for x in word:
        sgn = x > 0
        if sgn == cur:
            length += 1
        else:
            runs.append(length)
            cur = sgn
            length = 1
    runs.append(length)
    return tuple(runs)


def cyclic_s_sequence(word) -> tuple[int, ...]:
    """Run lengths around the cycle of a cyclically reduced word.

    The first and last blocks merge, into the first entry, when their
    signs agree; a word of a single sign yields ``(len(word),)``.
    """
    if not word:
        raise ValueError("cyclic S-sequence of the empty word is undefined")
    if not is_cyclically_reduced(word):
        raise ValueError("word is not cyclically reduced")
    runs = list(s_sequence(word))
    if len(runs) >= 2 and (word[0] > 0) == (word[-1] > 0):
        last = runs.pop()
        runs[0] += last
    return tuple(runs)


def is_alternating(word) -> bool:
    """True when the generators a, b alternate along the word."""
    gens = list(map(abs, word))
    return not any(map(eq, gens, gens[1:]))


def is_cyclically_alternating(word) -> bool:
    return is_alternating(word) and (
        len(word) < 2 or abs(word[0]) != abs(word[-1])
    )


def alt_word(initial: int, runs) -> Word:
    """The alternating word with the given initial letter and S-sequence.

    Generators alternate a, b, a, ... starting from the initial letter's
    generator; block signs alternate starting from the initial letter's
    sign.  Inverse of :func:`s_sequence` on alternating words.
    """
    if not runs:
        raise ValueError("empty S-sequence")
    gen = abs(initial)
    sgn = 1 if initial > 0 else -1
    out = []
    for run in runs:
        if run < 1:
            raise ValueError("S-sequence entries must be positive")
        for _ in range(run):
            out.append(gen * sgn)
            gen = 3 - gen
        sgn = -sgn
    return tuple(out)


def rotations(word):
    """All cyclic permutations of a word, in offset order."""
    return [word[i:] + word[:i] for i in range(len(word))]


def least_rotation(seq):
    """Lexicographically least rotation; canonical form for cyclic equality."""
    if not seq:
        return seq
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def cyclic_seq_eq(s, t) -> bool:
    """Equality of integer sequences modulo rotation (not reversal).

    t is a rotation of s exactly when it occurs in s + s.  Each value is
    written with a comma on both sides, so matches align with values:
    (1, 12) never matches (11, 2), and no value is too large.
    """
    if len(s) != len(t):
        return False
    doubled = "," + "".join(f"{x}," for x in s) * 2
    return "," + "".join(f"{x}," for x in t) in doubled

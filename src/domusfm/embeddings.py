"""Attribute text embeddings.

Tokens are embedded either from a precomputed TSV table (produced offline by
any sentence-embedding tool) or by a bit-exact hash fallback, so runs are
reproducible on any platform without model downloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

MASK_TOKEN = "MASK"
NULL_TOKEN = "NULL"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def _splitmix64(state: int):
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _U64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        yield z ^ (z >> 31)


def canonical_token(token: str) -> str:
    return token.strip().lower()


def fallback_embedding(token: str, d_text: int) -> np.ndarray:
    """Deterministic unit vector for an out-of-table token.

    FNV-1a-64 of the token bytes seeds a splitmix64 stream; each draw maps a
    u64 to [-1, 1] via (u >> 11) * 2^-53, then the vector is L2-normalized.
    Pure integer arithmetic keeps it bit-exact across platforms.
    """
    token = canonical_token(token)
    if not token:
        raise ValueError("fallback_embedding needs a nonempty token; NULL attributes "
                         "use the learned NULL vector instead")
    stream = _splitmix64(_fnv1a64(token.encode("utf-8")))
    values = np.empty(d_text, dtype=np.float64)
    for i in range(d_text):
        u = (next(stream) >> 11) * 2.0 ** -53  # uniform in [0, 1)
        values[i] = 2.0 * u - 1.0
    norm = float(np.sqrt((values * values).sum()))
    if norm < 1e-30:
        values[0] = 1.0
        norm = 1.0
    return values / norm


@dataclass
class AttributeEmbeddingTable:
    """token -> d_text vector, with reserved MASK/NULL entries.

    Lookup misses fall through to :func:`fallback_embedding` and are cached.
    The stored MASK/NULL rows are placeholders; the encoder substitutes its
    learned per-slot vectors for those tokens.
    """

    d_text: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    provenance: str = "fallback"
    _cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for token in (MASK_TOKEN, NULL_TOKEN):
            self.vectors.setdefault(token, np.zeros(self.d_text, dtype=np.float64))
        for token, vec in self.vectors.items():
            if vec.shape != (self.d_text,):
                raise ValueError(f"token {token!r}: vector length {vec.shape} != "
                                 f"({self.d_text},)")

    def fingerprint(self) -> str:
        """SHA-256 of the provenance, ``d_text`` and sorted tokens with float64 vectors.

        The reserved MASK/NULL rows are included and the lookup cache is not, so
        a fallback table is fixed by its provenance and ``d_text``.
        """
        digest = hashlib.sha256(f"{self.provenance}\n{self.d_text}\n".encode("utf-8"))
        for token in sorted(self.vectors):
            digest.update(token.encode("utf-8") + b"\n")
            digest.update(np.asarray(self.vectors[token], dtype="<f8").tobytes())
        return digest.hexdigest()

    def lookup(self, token: str) -> np.ndarray:
        key = canonical_token(token)
        if not key:
            return self.vectors[NULL_TOKEN]
        hit = self.vectors.get(key)
        if hit is not None:
            return hit
        cached = self._cache.get(key)
        if cached is None:
            cached = fallback_embedding(key, self.d_text)
            self._cache[key] = cached
        return cached


def load_table_tsv(blob: bytes) -> AttributeEmbeddingTable:
    """Parse a `token<TAB>f1...fd` TSV into a file-backed table."""
    text = blob.decode("utf-8")
    vectors: dict[str, np.ndarray] = {}
    d_text = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected token and floats")
        token = canonical_token(parts[0]) or parts[0].strip()
        if not token:
            raise ValueError(f"line {lineno}: empty token")
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad float: {exc}") from exc
        if not np.isfinite(vec).all():
            raise ValueError(f"line {lineno}: non-finite value for token {token!r}")
        if d_text is None:
            d_text = vec.size
        elif vec.size != d_text:
            raise ValueError(f"line {lineno}: dimension {vec.size} != {d_text}")
        if token in vectors:
            raise ValueError(f"line {lineno}: duplicate token {token!r}")
        vectors[token] = vec
    if d_text is None:
        raise ValueError("embedding table is empty")
    return AttributeEmbeddingTable(d_text=d_text, vectors=vectors, provenance="file")


def fallback_table(d_text: int) -> AttributeEmbeddingTable:
    return AttributeEmbeddingTable(d_text=d_text, provenance="fallback")

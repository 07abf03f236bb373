"""Unnormalized log posterior: marginalized F81+Gaps likelihood and gamma priors.

Each alignment column evolves down the tree under the F81+Gaps model,
where a mutation on an edge of length l happens with probability
1 - exp(-l) and redraws the symbol from a site-specific stationary
distribution theta over {A, C, G, T, gap}.  Cutting the tree at every
mutation leaves mutation-free components, each of which carries one
symbol drawn from theta: a component holding leaves must show their
common symbol x and contributes theta_x, and a leafless one contributes
sum(theta) = 1.  Felsenstein pruning over the status of the component
open at each vertex (still leafless, or already showing symbol x)
therefore writes the column likelihood as a polynomial in theta with
positive coefficients whose exponent of theta_x counts components
showing x.  It has at most prod_x (m_x + 1) terms, where m_x is the
number of leaves showing x, and degree at most the number of leaves.
The stationary distribution is never estimated: each monomial
integrates in closed form against a Dirichlet prior.  Edge lengths carry a gamma prior; the
posterior is the product, left unnormalized (the mixture weights over
tree topologies cancel in the sampler's acceptance ratio and are never
evaluated).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from .treespace import TaxonTable, Tree, tree_topology

ALPHABET = ("A", "C", "G", "T", "-")
N_SYMBOLS = 5
GAP = 4

_SYMBOL_INDEX = {"A": 0, "C": 1, "G": 2, "T": 3, "-": 4}


class ColumnLikelihoodError(ArithmeticError):
    """A column whose integrated likelihood is not a positive finite number."""

    def __init__(self, column: int, message: str):
        super().__init__(f"column {column}: {message}")
        self.column = column


def encode_symbol(symbol: str) -> int:
    """Map a character to the 5-letter alphabet; unknown symbols become gaps."""
    symbol = symbol.upper()
    if symbol in _SYMBOL_INDEX:
        return _SYMBOL_INDEX[symbol]
    warnings.warn(f"symbol {symbol!r} mapped to gap", stacklevel=2)
    return GAP


@dataclass(frozen=True)
class Alignment:
    """Aligned columns over the taxa, with duplicate columns counted once."""

    taxa: TaxonTable
    columns: tuple[tuple[int, ...], ...]
    # distinct columns in order of first occurrence, with multiplicities
    pattern_index: dict[tuple[int, ...], int] = field(init=False, compare=False)

    def __post_init__(self):
        patterns: dict[tuple[int, ...], int] = {}
        for column in self.columns:
            if len(column) != self.taxa.size:
                raise ValueError(
                    f"column has {len(column)} symbols, expected {self.taxa.size}"
                )
            if any(not 0 <= x < N_SYMBOLS for x in column):
                raise ValueError("symbol index outside the alphabet")
            patterns[column] = patterns.get(column, 0) + 1
        object.__setattr__(self, "pattern_index", patterns)

    @classmethod
    def from_columns(cls, taxa: TaxonTable, columns) -> "Alignment":
        return cls(taxa, tuple(tuple(c) for c in columns))

    @classmethod
    def from_sequences(cls, taxa: TaxonTable, sequences) -> "Alignment":
        """Build from one string per taxon, in taxon order."""
        sequences = [str(s) for s in sequences]
        if len(sequences) != taxa.size:
            raise ValueError(f"{len(sequences)} sequences for {taxa.size} taxa")
        length = len(sequences[0])
        if any(len(s) != length for s in sequences):
            raise ValueError("sequences have unequal lengths")
        columns = [
            tuple(encode_symbol(seq[i]) for seq in sequences) for i in range(length)
        ]
        return cls.from_columns(taxa, columns)

    @property
    def n_columns(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class DirichletPrior:
    """Pseudocounts of the Dirichlet prior on the stationary distribution."""

    alpha: tuple[float, ...] = (0.2,) * N_SYMBOLS

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != N_SYMBOLS:
            raise ValueError(f"need {N_SYMBOLS} pseudocounts")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("pseudocounts must be positive")


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior on every edge length (shape/scale convention)."""

    shape: float = 1.0
    scale: float = 0.1

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def log_density(self, length: float) -> float:
        if length <= 0:
            return -math.inf
        return (
            (self.shape - 1.0) * math.log(length)
            - length / self.scale
            - self.shape * math.log(self.scale)
            - math.lgamma(self.shape)
        )


def mutation_prob(length: float) -> float:
    """Probability of at least one substitution on an edge (unit rate)."""
    if not length > 0:
        raise ValueError(f"edge length must be positive, got {length}")
    return -math.expm1(-length)


@lru_cache(maxsize=65536)
def _log_moment(counts: tuple[int, ...], alpha: tuple[float, ...]) -> float:
    total_alpha = sum(alpha)
    total = sum(counts)
    value = math.lgamma(total_alpha) - math.lgamma(total_alpha + total)
    for a, count in zip(alpha, counts):
        if count:
            value += math.lgamma(a + count) - math.lgamma(a)
    return value


# Polynomials are bare {exponents: coefficient} dicts.  Inside pruning a
# term's key packs its exponent vector into one int, `width` bits per
# symbol, so multiplying two monomials is one integer addition.  An
# exponent never exceeds the leaf count, so width = n_leaves.bit_length()
# leaves no carry between symbols.

# status polynomials are scaled by a power of two (exactly) once their
# largest coefficient falls below this
_RESCALE_BELOW = 2.0**-256
_LOG2 = math.log(2.0)


def _product(left: dict, right: dict) -> dict:
    if len(left) > len(right):
        left, right = right, left
    out: dict = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = ka + kb
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _add_into(accum: dict, terms: dict, factor: float = 1.0) -> None:
    for key, coeff in terms.items():
        accum[key] = accum.get(key, 0.0) + coeff * factor


def _closed(empty: dict, shows: dict, units) -> dict:
    """The open component closes: leafless adds 1, showing x adds theta_x."""
    out = dict(empty)
    for x, terms in shows.items():
        unit = units[x]
        for key, coeff in terms.items():
            out[key + unit] = out.get(key + unit, 0.0) + coeff
    return out


def _rescale(empty: dict, shows: dict) -> tuple[int, float]:
    """Multiply every status polynomial by 2**-k, exactly, when the largest
    coefficient nears underflow; returns k (0 when nothing was scaled) and
    the largest coefficient afterwards."""
    states = [empty, *shows.values()]
    peak = max((max(terms.values()) for terms in states if terms), default=0.0)
    if peak == 0.0 or peak >= _RESCALE_BELOW:
        return 0, peak
    exponent = math.frexp(peak)[1]
    factor = math.ldexp(1.0, -exponent)
    for terms in states:
        for key in terms:
            terms[key] *= factor
    return exponent, peak * factor


def _column_terms(root, column) -> tuple[dict, int]:
    """The column polynomial as ({exponents: coefficient}, scale); the
    likelihood's coefficients are these times 2**scale.

    Each vertex holds the status polynomials of the mutation-free
    component open at it: `empty` while that component has no leaf
    below, `shows[x]` once its leaves show symbol x.  Coefficients are
    sums of products of probabilities, never differences.
    """
    width = len(column).bit_length()
    units = [1 << (width * x) for x in range(N_SYMBOLS)]
    scale = 0

    def statuses(node) -> tuple[dict, dict, float]:
        """Status polynomials at `node` and a lower bound on their largest
        coefficient."""
        nonlocal scale
        if node.is_leaf():
            return {}, {column[node.leaf]: {0: 1.0}}, 1.0
        empty, shows, floor = {0: 1.0}, {}, 1.0
        for child in node.children:
            c_empty, c_shows, c_floor = statuses(child)
            mut = mutation_prob(child.length)
            stay = 1.0 - mut
            # a mutation on the edge closes the child's component
            m_empty = {k: c * mut for k, c in _closed(c_empty, c_shows, units).items()}
            _add_into(m_empty, c_empty, stay)
            m_shows = {
                x: {k: c * stay for k, c in terms.items()}
                for x, terms in c_shows.items()
            }
            folded = {}
            for x in sorted(shows.keys() | m_shows.keys()):
                terms: dict = {}
                if x in shows:
                    stays_x = m_empty
                    if x in m_shows:
                        stays_x = dict(m_empty)
                        _add_into(stays_x, m_shows[x])
                    _add_into(terms, _product(shows[x], stays_x))
                if x in m_shows:
                    _add_into(terms, _product(empty, m_shows[x]))
                folded[x] = terms
            empty, shows = _product(empty, m_empty), folded
            # a message keeps at least half its child's largest coefficient,
            # and folding it in keeps at least mut times both largest ones
            floor *= c_floor * mut * 0.5
            if floor < _RESCALE_BELOW:
                exponent, floor = _rescale(empty, shows)
                scale += exponent
        return empty, shows, floor

    empty, shows, _ = statuses(root)
    packed = _closed(empty, shows, units)
    mask = (1 << width) - 1
    terms = {
        tuple((key >> (width * x)) & mask for x in range(N_SYMBOLS)): coeff
        for key, coeff in packed.items()
        if coeff > 0.0
    }
    return terms, scale


def log_likelihood(tree: Tree, alignment: Alignment, prior: DirichletPrior) -> float:
    """Log likelihood of the whole alignment, marginalized over stationaries."""
    if alignment.taxa != tree.taxa:
        raise ValueError("alignment and tree are over different taxa")
    root = tree_topology(tree)
    alpha = prior.alpha
    total = 0.0
    for pattern, multiplicity in alignment.pattern_index.items():
        terms, scale = _column_terms(root, pattern)
        if not terms:
            column = alignment.columns.index(pattern)
            raise ColumnLikelihoodError(column, "likelihood underflow to zero")
        logs = [math.log(c) + _log_moment(e, alpha) for e, c in terms.items()]
        peak = max(logs)
        value = peak + math.log(sum(math.exp(l - peak) for l in logs)) + scale * _LOG2
        total += multiplicity * value
    return total


def log_prior(tree: Tree, prior: GammaPrior) -> float:
    """Summed log gamma density over every leaf and inner edge."""
    total = 0.0
    for length in tree.leaf_lengths:
        total += prior.log_density(length)
    for length in tree.inner.values():
        total += prior.log_density(length)
    return total


def log_posterior(
    tree: Tree,
    alignment: Alignment,
    dirichlet: DirichletPrior,
    gamma: GammaPrior,
) -> float:
    """Unnormalized log posterior density of the tree given the alignment."""
    return log_likelihood(tree, alignment, dirichlet) + log_prior(tree, gamma)

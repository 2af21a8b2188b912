"""The bit operations as canonical stochastic channels with energy ledgers.

Equilibrium is fixed at the uniform distribution (product-uniform on
pairs), so the change in relative entropy is exactly the negative change
in Shannon entropy, and each ledger's minimum-energy bound is kT times
that change. Positive min_energy is work that must at least be supplied;
negative is an upper bound on extractable work.

Every operation is represented by one fixed channel matrix. In strict
mode the input must have the operation's nominal type; lenient mode
applies the same channel to arbitrary inputs and books the deltas from
the actual distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .info import LOG2, Distribution, JointDistribution, shannon_entropy
from .thermo import _check_kT

_CLASSIFY_TOL = 1e-9

# Pair states are flattened row-major: 00, 01, 10, 11.
_ERASE = np.array([[1.0, 0.0], [1.0, 0.0]])
_NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
_IDENTITY2 = np.eye(2)
_THERMALIZE = np.array([[0.5, 0.5], [0.5, 0.5]])
_COPY = np.zeros((4, 4))
for _b1 in (0, 1):
    for _b2 in (0, 1):
        _COPY[2 * _b1 + _b2, 2 * _b1 + _b1] = 1.0
_RANDOMIZE_FIRST = np.zeros((4, 4))
for _b1 in (0, 1):
    for _b2 in (0, 1):
        for _new in (0, 1):
            _RANDOMIZE_FIRST[2 * _b1 + _b2, 2 * _new + _b2] = 0.5


class BitType(Enum):
    ZERO = "0"
    ONE = "1"
    STAR = "*"
    OTHER = "other"


class PairRelation(Enum):
    CORRELATED = "correlated"
    ANTICORRELATED = "anticorrelated"
    INDEPENDENT = "independent"
    OTHER = "other"


class Direction(Enum):
    COSTS_AT_LEAST = "COSTS_AT_LEAST"
    YIELDS_AT_MOST = "YIELDS_AT_MOST"
    FREE = "FREE"


@dataclass(frozen=True, eq=False)
class BitState:
    """A single bit: a distribution over {0, 1}."""

    dist: Distribution

    def __post_init__(self):
        if len(self.dist) != 2:
            raise ShapeError("a bit needs a 2-state distribution")

    @classmethod
    def zero(cls) -> "BitState":
        return cls(Distribution(np.array([1.0, 0.0])))

    @classmethod
    def one(cls) -> "BitState":
        return cls(Distribution(np.array([0.0, 1.0])))

    @classmethod
    def star(cls) -> "BitState":
        return cls(Distribution(np.array([0.5, 0.5])))

    @classmethod
    def from_probs(cls, p0: float, p1: float) -> "BitState":
        return cls(Distribution(np.array([p0, p1])))

    @property
    def classification(self) -> BitType:
        p0 = self.dist[0]
        if abs(p0 - 1.0) <= _CLASSIFY_TOL:
            return BitType.ZERO
        if p0 <= _CLASSIFY_TOL:
            return BitType.ONE
        if abs(p0 - 0.5) <= _CLASSIFY_TOL:
            return BitType.STAR
        return BitType.OTHER

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitState):
            return NotImplemented
        return self.dist == other.dist


@dataclass(frozen=True, eq=False)
class BitPairState:
    """Two bits with an arbitrary joint distribution over {00, 01, 10, 11}."""

    joint: JointDistribution

    def __post_init__(self):
        if self.joint.shape != (2, 2):
            raise ShapeError("a bit pair needs a 2x2 joint distribution")

    @classmethod
    def independent_uniform(cls) -> "BitPairState":
        return cls(JointDistribution(np.full((2, 2), 0.25)))

    @classmethod
    def correlated_uniform(cls) -> "BitPairState":
        return cls(JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]])))

    @classmethod
    def anticorrelated_uniform(cls) -> "BitPairState":
        return cls(JointDistribution(np.array([[0.0, 0.5], [0.5, 0.0]])))

    @classmethod
    def from_bits(cls, first: BitState, second: BitState) -> "BitPairState":
        return cls(JointDistribution.from_product(first.dist, second.dist))

    @property
    def first(self) -> BitState:
        return BitState(self.joint.marginal_first())

    @property
    def second(self) -> BitState:
        return BitState(self.joint.marginal_second())

    @property
    def relation(self) -> PairRelation:
        p = self.joint.probs
        disagree = float(p[0, 1] + p[1, 0])
        agree = float(p[0, 0] + p[1, 1])
        if disagree <= _CLASSIFY_TOL:
            return PairRelation.CORRELATED
        if agree <= _CLASSIFY_TOL:
            return PairRelation.ANTICORRELATED
        product = np.outer(p.sum(axis=1), p.sum(axis=0))
        if float(np.max(np.abs(p - product))) <= _CLASSIFY_TOL:
            return PairRelation.INDEPENDENT
        return PairRelation.OTHER

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitPairState):
            return NotImplemented
        return self.joint == other.joint


@dataclass(frozen=True)
class OpLedger:
    """Information and minimum-energy accounting for one bit operation."""

    op_name: str
    input_state: tuple[float, ...]
    output_state: tuple[float, ...]
    delta_h_nats: float
    delta_d_nats: float
    min_energy: float
    direction: Direction
    temperature: float
    boltzmann: float

    def to_json_dict(self) -> dict:
        return {
            "op": self.op_name,
            "input": list(self.input_state),
            "output": list(self.output_state),
            "delta_H": {"nats": self.delta_h_nats, "bits": self.delta_h_nats / LOG2},
            "delta_D": {"nats": self.delta_d_nats, "bits": self.delta_d_nats / LOG2},
            "min_energy": self.min_energy,
            "direction": self.direction.value,
            "temperature": self.temperature,
            "boltzmann": self.boltzmann,
        }


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "lenient"):
        raise DomainError(f"mode must be 'strict' or 'lenient', got {mode!r}")


def _build_ledger(
    op_name: str,
    dist_in: Distribution,
    dist_out: Distribution,
    temperature: float,
    boltzmann: float,
) -> OpLedger:
    _check_kT(temperature, boltzmann)
    delta_h = shannon_entropy(dist_out).nats - shannon_entropy(dist_in).nats
    delta_d = -delta_h + 0.0  # vs uniform equilibrium, ΔD = −ΔH identically
    if delta_d > 0.0:
        direction = Direction.COSTS_AT_LEAST
    elif delta_d < 0.0:
        direction = Direction.YIELDS_AT_MOST
    else:
        direction = Direction.FREE
    return OpLedger(
        op_name=op_name,
        input_state=tuple(float(x) for x in dist_in.probs),
        output_state=tuple(float(x) for x in dist_out.probs),
        delta_h_nats=delta_h,
        delta_d_nats=delta_d,
        min_energy=boltzmann * temperature * delta_d,
        direction=direction,
        temperature=temperature,
        boltzmann=boltzmann,
    )


def _apply_bit(matrix: np.ndarray, b: BitState) -> BitState:
    return BitState(Distribution(b.dist.probs @ matrix))


def _apply_pair(matrix: np.ndarray, pair: BitPairState) -> BitPairState:
    flat = pair.joint.probs.reshape(-1) @ matrix
    return BitPairState(JointDistribution(flat.reshape(2, 2)))


def _expect_type(op: str, b: BitState, expected: tuple[BitType, ...]) -> None:
    if b.classification not in expected:
        names = " or ".join(t.name for t in expected)
        raise ContractError(
            f"{op} expects a bit of type {names} in strict mode, "
            f"got {b.classification.name}"
        )


def erase(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Take a uniform bit to the all-zeros bit; costs at least kT log 2."""
    _check_mode(mode)
    if mode == "strict":
        _expect_type("erase", b, (BitType.STAR,))
    out = _apply_bit(_ERASE, b)
    return out, _build_ledger("erase", b.dist, out.dist, temperature, boltzmann)


def not_op(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Swap the two outcomes; entropy-free."""
    _check_mode(mode)
    out = _apply_bit(_NOT, b)
    return out, _build_ledger("not", b.dist, out.dist, temperature, boltzmann)


def switch(
    b: BitState,
    from_value: int,
    to_value: int,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Move the definite bit value `from_value` to `to_value`; entropy-free."""
    _check_mode(mode)
    if from_value not in (0, 1) or to_value not in (0, 1):
        raise DomainError("switch values must be 0 or 1")
    if mode == "strict":
        expected = BitType.ZERO if from_value == 0 else BitType.ONE
        _expect_type(f"switch({from_value}->{to_value})", b, (expected,))
    matrix = _IDENTITY2 if from_value == to_value else _NOT
    out = _apply_bit(matrix, b)
    return out, _build_ledger(
        f"switch({from_value}->{to_value})", b.dist, out.dist, temperature, boltzmann
    )


def randomize(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Thermalize a definite bit to uniform; yields at most kT log 2."""
    _check_mode(mode)
    if mode == "strict":
        # The all-ones bit is accepted by symmetry of the uniform equilibrium.
        _expect_type("randomize", b, (BitType.ZERO, BitType.ONE))
    out = _apply_bit(_THERMALIZE, b)
    return out, _build_ledger("randomize", b.dist, out.dist, temperature, boltzmann)


def copy_szilard(
    pair: BitPairState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitPairState, OpLedger]:
    """Copy bit 1 onto an independent uniform bit 2; costs at least kT log 2."""
    _check_mode(mode)
    if mode == "strict":
        if (
            pair.first.classification is not BitType.STAR
            or pair.second.classification is not BitType.STAR
            or pair.relation is not PairRelation.INDEPENDENT
        ):
            raise ContractError(
                "copy_szilard expects an independent pair of type (*, *) in "
                f"strict mode, got ({pair.first.classification.name}, "
                f"{pair.second.classification.name}) {pair.relation.name}"
            )
    out = _apply_pair(_COPY, pair)
    return out, _build_ledger(
        "copy_szilard", pair.joint.flatten(), out.joint.flatten(), temperature, boltzmann
    )


def copy_landauer(
    pair: BitPairState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitPairState, OpLedger]:
    """Copy bit 1 onto an initialized (all-zeros) bit 2; no lower bound."""
    _check_mode(mode)
    if mode == "strict":
        if (
            pair.first.classification is not BitType.STAR
            or pair.second.classification is not BitType.ZERO
        ):
            raise ContractError(
                "copy_landauer expects a pair of type (*, 0) in strict mode, "
                f"got ({pair.first.classification.name}, "
                f"{pair.second.classification.name})"
            )
    out = _apply_pair(_COPY, pair)
    return out, _build_ledger(
        "copy_landauer", pair.joint.flatten(), out.joint.flatten(), temperature, boltzmann
    )


def randomize_first(
    pair: BitPairState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
) -> tuple[BitPairState, OpLedger]:
    """Thermalize the first bit of a pair, leaving the second marginal fixed.

    This is the extraction step of the demon protocols: on a correlated
    uniform pair it produces the independent uniform pair.
    """
    out = _apply_pair(_RANDOMIZE_FIRST, pair)
    return out, _build_ledger(
        "randomize_first", pair.joint.flatten(), out.joint.flatten(), temperature, boltzmann
    )

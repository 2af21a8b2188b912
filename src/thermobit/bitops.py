"""The bit operations as canonical stochastic channels with energy ledgers.

Equilibrium is fixed at the uniform distribution (product-uniform on
pairs), so the change in relative entropy is exactly the negative change
in Shannon entropy, and each ledger's minimum-energy bound is kT times
that change. Positive min_energy is work that must at least be supplied;
negative is an upper bound on extractable work.

Every operation is one row of the table `OPS`: its name, one fixed
channel matrix, the input types strict mode accepts and its nominal
input. In strict mode the input must have one of those types; lenient
mode applies the same channel to arbitrary inputs and books the deltas
from the actual distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .info import LOG2, SUM_TOLERANCE, Distribution, JointDistribution, shannon_entropy
from .thermo import _check_kT

# Pair states are flattened row-major: 00, 01, 10, 11.
_ERASE = np.array([[1.0, 0.0], [1.0, 0.0]])
_NOT = np.array([[0.0, 1.0], [1.0, 0.0]])
_IDENTITY2 = np.eye(2)
_THERMALIZE = np.array([[0.5, 0.5], [0.5, 0.5]])
_COPY = np.zeros((4, 4))
for _b1 in (0, 1):
    for _b2 in (0, 1):
        _COPY[2 * _b1 + _b2, 2 * _b1 + _b1] = 1.0
_RANDOMIZE_FIRST = np.kron(_THERMALIZE, _IDENTITY2)  # thermalize bit 1, keep bit 2


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
        if abs(p0 - 1.0) <= SUM_TOLERANCE:
            return BitType.ZERO
        if p0 <= SUM_TOLERANCE:
            return BitType.ONE
        if abs(p0 - 0.5) <= SUM_TOLERANCE:
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

    @classmethod
    def from_probs(cls, p00: float, p01: float, p10: float, p11: float) -> "BitPairState":
        return cls(JointDistribution(np.array([[p00, p01], [p10, p11]])))

    @property
    def dist(self) -> Distribution:
        """The joint distribution over the flat states 00, 01, 10, 11."""
        return self.joint.flatten()

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
        if disagree <= SUM_TOLERANCE:
            return PairRelation.CORRELATED
        if agree <= SUM_TOLERANCE:
            return PairRelation.ANTICORRELATED
        product = np.outer(p.sum(axis=1), p.sum(axis=0))
        if float(np.max(np.abs(p - product))) <= SUM_TOLERANCE:
            return PairRelation.INDEPENDENT
        return PairRelation.OTHER

    @property
    def classification(self) -> tuple[BitType, BitType, PairRelation]:
        return (self.first.classification, self.second.classification, self.relation)

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


class BitOp(NamedTuple):
    """One row of the operation table."""

    function: str  # the public function that runs this row, called by name
    ledger_name: str
    matrix: np.ndarray
    accepts: tuple | None  # the input types strict mode accepts (None: any)
    nominal: BitState | BitPairState | None = None  # the input the op is defined on
    values: tuple[int, ...] = ()  # switch's (from, to) arguments


def _switch(from_value: int, to_value: int) -> BitOp:
    if from_value not in (0, 1) or to_value not in (0, 1):
        raise DomainError("switch values must be 0 or 1")
    return BitOp("switch", f"switch({from_value}->{to_value})",
                 _IDENTITY2 if from_value == to_value else _NOT,
                 (BitType.ONE if from_value else BitType.ZERO,),
                 BitState.one() if from_value else BitState.zero(), (from_value, to_value))


# The operations by their CLI and `.tbit` names, in the order usage messages
# list them. A row names its public function instead of holding it, so that
# a wrapper put in the function's place on this module sees every call.
OPS = {
    "erase": BitOp("erase", "erase", _ERASE, (BitType.STAR,), BitState.star()),
    "copy-szilard": BitOp("copy_szilard", "copy_szilard", _COPY,
                          ((BitType.STAR, BitType.STAR, PairRelation.INDEPENDENT),),
                          BitPairState.independent_uniform()),
    # a (*, 0) pair is always independent: the relation adds no condition
    "copy-landauer": BitOp("copy_landauer", "copy_landauer", _COPY,
                           ((BitType.STAR, BitType.ZERO, PairRelation.INDEPENDENT),),
                           BitPairState.from_bits(BitState.star(), BitState.zero())),
    "not": BitOp("not_op", "not", _NOT, None, BitState.star()),
    "switch": _switch(0, 1),
    # the all-ones bit is accepted by symmetry of the uniform equilibrium
    "randomize": BitOp("randomize", "randomize", _THERMALIZE,
                       (BitType.ZERO, BitType.ONE), BitState.zero()),
}
_RANDOMIZE_FIRST_OP = BitOp("randomize_first", "randomize_first", _RANDOMIZE_FIRST, None)


def operation(name: str, *values: int) -> BitOp:
    """The row of `name`; given (from, to) values, switch's row for them."""
    return _switch(*values) if values else OPS[name]


def _type_name(t) -> str:
    return "(" + ", ".join(x.name for x in t) + ")" if isinstance(t, tuple) else t.name


def _run(op: BitOp, state, temperature: float, boltzmann: float, mode: str = "strict"):
    """Apply `op`'s channel to a bit or pair state and book its ledger."""
    if mode not in ("strict", "lenient"):
        raise DomainError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    kind = "bit" if len(op.matrix) == 2 else "pair"
    if len(state.dist) != len(op.matrix):
        raise ShapeError(f"{op.ledger_name} expects a {kind}, got a {type(state).__name__}")
    if mode == "strict" and op.accepts is not None:
        got = state.classification
        if got not in op.accepts:
            expected = " or ".join(map(_type_name, op.accepts))
            raise ContractError(f"{op.ledger_name} expects a {kind} of type {expected} "
                                f"in strict mode, got {_type_name(got)}")
    dist_in = state.dist
    out = type(state).from_probs(*(dist_in.probs @ op.matrix))
    dist_out = out.dist
    _check_kT(temperature, boltzmann)
    delta_h = shannon_entropy(dist_out).nats - shannon_entropy(dist_in).nats
    delta_d = -delta_h + 0.0  # vs uniform equilibrium, ΔD = −ΔH identically
    if delta_d > 0.0:
        direction = Direction.COSTS_AT_LEAST
    elif delta_d < 0.0:
        direction = Direction.YIELDS_AT_MOST
    else:
        direction = Direction.FREE
    return out, OpLedger(
        op_name=op.ledger_name,
        input_state=tuple(float(x) for x in dist_in.probs),
        output_state=tuple(float(x) for x in dist_out.probs),
        delta_h_nats=delta_h,
        delta_d_nats=delta_d,
        min_energy=boltzmann * temperature * delta_d,
        direction=direction,
        temperature=temperature,
        boltzmann=boltzmann,
    )


def erase(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Take a uniform bit to the all-zeros bit; costs at least kT log 2."""
    return _run(OPS["erase"], b, temperature, boltzmann, mode)


def not_op(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Swap the two outcomes; entropy-free."""
    return _run(OPS["not"], b, temperature, boltzmann, mode)


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
    return _run(_switch(from_value, to_value), b, temperature, boltzmann, mode)


def randomize(
    b: BitState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitState, OpLedger]:
    """Thermalize a definite bit to uniform; yields at most kT log 2."""
    return _run(OPS["randomize"], b, temperature, boltzmann, mode)


def copy_szilard(
    pair: BitPairState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitPairState, OpLedger]:
    """Copy bit 1 onto an independent uniform bit 2; costs at least kT log 2."""
    return _run(OPS["copy-szilard"], pair, temperature, boltzmann, mode)


def copy_landauer(
    pair: BitPairState,
    *,
    temperature: float = 1.0,
    boltzmann: float = 1.0,
    mode: str = "strict",
) -> tuple[BitPairState, OpLedger]:
    """Copy bit 1 onto an initialized (all-zeros) bit 2; no lower bound."""
    return _run(OPS["copy-landauer"], pair, temperature, boltzmann, mode)


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
    return _run(_RANDOMIZE_FIRST_OP, pair, temperature, boltzmann)

"""Machine-checkable information thermodynamics on finite state spaces.

The library identifies the information an observer holds about a system
(relative entropy to equilibrium) with the system's available free
energy, and ships the machinery to verify that identity numerically:
bit operations with energy ledgers, a Markov-chain Second-Law auditor,
and a discretized single-molecule engine work calculator.
"""

from .bitops import (
    BitPairState,
    BitState,
    BitType,
    Direction,
    OpLedger,
    PairRelation,
    copy_landauer,
    copy_szilard,
    erase,
    not_op,
    randomize,
    randomize_first,
    switch,
)
from .engine import (
    CycleLedger,
    EngineConfig,
    MeasurementKind,
    demon_cycle,
    erase_work_bound,
    exact_isothermal_work,
    isothermal_work,
    randomize_work_yield,
)
from .errors import (
    ContractError,
    DomainError,
    ShapeError,
    ThermobitError,
)
from .info import (
    LOG2,
    Distribution,
    InfoDecomposition,
    InfoQuantity,
    JointDistribution,
    decompose_information,
    mutual_information,
    relative_entropy,
    self_information,
    shannon_entropy,
)
from .markov import (
    AuditVerdict,
    Channel,
    StationaryMultiplicityWarning,
    Trajectory,
    apply_channel,
    check_detailed_balance,
    data_processing_check,
    evolve,
    second_law_audit,
    stationary_distribution,
)
from .thermo import (
    SI_BOLTZMANN,
    EnergyLandscape,
    ThermoReport,
    available_free_energy,
    average_energy,
    check_szilard_landauer,
    free_energy,
    gibbs_distribution,
    log_partition_function,
)

__version__ = "0.1.0"

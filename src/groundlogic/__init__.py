"""groundlogic: logic and computation encoded in energy-model ground states.

Boolean gates become penalty-energy fragments, netlists and CNF formulas
become networks whose minimum-energy states are exactly the valid
evaluations, and a deterministic Turing machine run becomes a lattice whose
ground states are the valid computation histories.  Decision and
minimization bias units turn those networks into search machines; exact
enumeration and seeded Metropolis annealing read the answers out.
"""

from .model import (
    Assignment,
    CapacityError,
    DEFAULT_CAP,
    DumpFormatError,
    Energy,
    EnergyModel,
    EnergyTerm,
    IncompleteAssignmentError,
    K_MAX,
    ModelError,
    SpectrumReport,
    Variable,
    as_energy,
    enumerate_ground_states,
    format_model,
    parse_model,
    spectrum,
    total_energy,
)
from .logic import AND2, NOT, OR2, XOR2, TruthFunction, and_n, or_n
from .gadgets import (
    EdcReport,
    Forcing,
    Gadget,
    ImplementsReport,
    LogicDominanceError,
    check_edc,
    check_implements,
    format_gadget,
    make_physical_and,
    make_wire_chain,
    parse_gadget,
    per_input_grounds,
    symmetrize,
    synthesize_gadget,
)
from .netlist import (
    Cnf,
    CycleError,
    DimacsFormatError,
    Gate,
    Netlist,
    NetlistError,
    NetlistFormatError,
    brute_force_satisfying_set,
    decompose_to_basis,
    encode_cnf,
    evaluate,
    format_dimacs,
    format_netlist,
    netlist_from_bit_functions,
    netlist_truth_table,
    parse_dimacs,
    parse_netlist,
)
from .netbuilder import (
    ComplexityReport,
    Network,
    NoConsistentStateError,
    clamp_inputs,
    compile_netlist,
)
from .turing import (
    DtmError,
    DtmHistory,
    DtmSpec,
    Lattice,
    LatticePlan,
    SfscFunction,
    SqdtmComplexity,
    build_lattice,
    build_sfsc_function,
    build_sfsc_netlist,
    format_dtm,
    parse_dtm,
    simulate_dtm_oracle,
    verify_ground_histories,
)
from .bias import (
    Dedlu,
    HierarchyError,
    Medlu,
    UsqcPlan,
    assemble_usqc,
    attach_dedlu,
    attach_medlu,
)
from .anneal import (
    AnnealResult,
    AnnealSchedule,
    NothingToDoError,
    RelaxationStats,
    RelaxRow,
    RestartResult,
    metropolis_anneal,
    relaxation_scan,
    stats_to_csv,
)

__version__ = "0.1.0"

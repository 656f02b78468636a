"""qassert: statistical assertion checkpoints for simulated quantum circuits.

A small dense state-vector simulator whose circuits can embed mid-circuit
statistical assertions (classical, uniform, product state), evaluated over
sampled measurement distributions with chi-square, Fisher exact, and Monte
Carlo permutation tests.
"""

from .assertions import (
    AssertionResult,
    ProgramConfig,
    assert_classical,
    assert_product,
    assert_uniform,
    build_contingency_table,
    default_shots,
    evaluate_checkpoint,
)
from .errors import (
    CapacityError,
    CircuitError,
    ConvergenceError,
    InfeasibleShotsError,
    InvalidExpectedError,
    NumericalError,
    ParseError,
    QAssertError,
)
from .examples import build_example, builtin_examples
from .ir import QUBIT_CAP, AssertionDirective, AssertionKind, Circuit, GateOp, Measurement
from .parser import parse_circuit, render_circuit
from .runner import RunReport, render_report, run_program
from .sampling import MeasurementDistribution, exact_distribution, marginalize, sample
from .sim import StateVector, apply_gate, new_state
from .stats import (
    ContingencyTable,
    PValue,
    TestMethod,
    chi_square_gof_pvalue,
    chi_square_statistic,
    fisher_exact_2x2,
    legacy_chisq_add1,
    monte_carlo_independence,
    upper_regularized_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "AssertionDirective", "AssertionKind", "AssertionResult", "CapacityError",
    "Circuit", "CircuitError", "ContingencyTable", "ConvergenceError",
    "GateOp", "InfeasibleShotsError", "InvalidExpectedError",
    "MeasurementDistribution", "Measurement", "NumericalError", "PValue",
    "ParseError", "ProgramConfig", "QAssertError", "QUBIT_CAP", "RunReport",
    "StateVector", "TestMethod", "apply_gate", "assert_classical",
    "assert_product", "assert_uniform", "build_contingency_table",
    "build_example", "builtin_examples", "chi_square_gof_pvalue",
    "chi_square_statistic", "default_shots", "evaluate_checkpoint",
    "exact_distribution", "fisher_exact_2x2", "legacy_chisq_add1",
    "marginalize", "monte_carlo_independence", "new_state", "parse_circuit",
    "render_circuit", "render_report", "run_program", "sample",
    "upper_regularized_gamma",
]

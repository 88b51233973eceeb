"""Verification laboratory for Boole/Bell-type inequalities.

Subpackages by theme: ``datasets`` (dichotomic tuples and the arithmetic
clause families), ``tables`` (non-negative functions of dichotomic variables
and their expansion-coefficient bounds), ``quantum`` (exact small-spin
engine), ``leggett_garg`` (temporal-correlation model), ``classical``
(allergy story and factorizable threshold models), ``pipeline``
(time-tagged event processing), ``cli`` (entry point).
"""

from .datasets import (DichotomicDataset, check_boole_triple,
                       check_boole_triple_anticorrelated, check_chsh,
                       check_pair_bound, correlations, read_dataset_csv,
                       write_dataset_csv)
from .reports import SLACK_TOL, Clause, InequalityReport, make_clause, make_report
from .tables import (CompatibilityResult, ExpansionCoeffs2, ExpansionCoeffs3,
                     FuncTable2, FuncTable3, IncompatibleMarginalsError,
                     LambdaModel, Reconstruction, SignTable, bell_pair_tables,
                     bell_triple_table, construct_g3, ebbi_check, expand2,
                     expand3, marginals_compatible, reconstruct_f3, synth2,
                     synth3, theorem1_check, theorem3_check)

__all__ = [
    "Clause", "InequalityReport", "SLACK_TOL", "make_clause", "make_report",
    "DichotomicDataset", "correlations", "check_boole_triple",
    "check_boole_triple_anticorrelated", "check_pair_bound", "check_chsh",
    "read_dataset_csv", "write_dataset_csv",
    "SignTable", "FuncTable2", "FuncTable3", "ExpansionCoeffs2", "ExpansionCoeffs3",
    "expand2", "synth2", "expand3", "synth3", "theorem1_check", "ebbi_check",
    "construct_g3", "theorem3_check", "marginals_compatible",
    "reconstruct_f3", "Reconstruction", "CompatibilityResult",
    "IncompatibleMarginalsError", "LambdaModel", "bell_pair_tables",
    "bell_triple_table",
]

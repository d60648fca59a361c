"""Skyline-filling combinatorics with exact arithmetic.

Demazure atoms, Demazure characters, and quasisymmetric Schur
polynomials, their Littlewood-Richardson expansions, and the tableau
enumeration that proves the coefficients.
"""

from .errors import SkylineError
from .shapes import (Composition, Partition, Permutation, WeakComposition,
                     bruhat_leq, comp_bruhat_geq, min_sorting_perm,
                     partition_of, rem_k, reverse, strongof)
from .fillings import (BasementKind, Filling, SkewShape, basement_values,
                       classify_triple, enumerate_triples, is_nonattacking,
                       is_ssk, weight_monomial)
from .words import (col_word, column_sets, content, is_contre_lattice,
                    is_loosely_contre_lattice, is_regular_contre_lattice,
                    row_word)
from .contretab import (ContreTableau, is_ct, is_lr_skew_ct, rho, rho_inv,
                        super_ct)
from .enumgen import (count_lrc, enum_ct, enum_lrk, enum_lrs, enum_ssc,
                      enum_ssk_shape, lrc_representatives, reshape)
from .poly import (Polynomial, atom_poly, char_poly, expand_in_atoms, qs_poly,
                   schur_poly)
from .lrrules import (ExpansionReport, coeff_a, coeff_b, coeff_classical,
                      coeff_qs, pieri_single_box, sweep,
                      verify_atom_theorem, verify_char_theorem,
                      verify_consistency_identity, verify_qs_theorem)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""geamkit: generalized equiangular measurements, k-positive maps, and
Schmidt number witnesses, verified numerically at small dimension."""

from .basis import (HermitianBasis, conjugate_basis, frame_operators,
                    gell_mann_basis, gell_mann_hermitian_basis, partition_basis)
from .certify import (CertificationReport, MehtaReport, SchmidtStateSample,
                      brute_force_oracle, mehta_ratio, min_schmidt_k)
from .detect import (DetectionRecord, IsotropicState, detection_threshold,
                     random_schmidt_mixture, sweep_isotropic, witness_expectation)
from .errors import GeamError, PositivityError, ValidationError
from .fixtures import (mub_layout, qubit_mub, qubit_two_group, qutrit_mub,
                       qutrit_single_frame)
from .geam import (DerivedParams, Geam, GeamParams, ValidationReport,
                   analyze_geam, build_geam, coincidence_bound, coincidence_index,
                   conical_design_check, derive_params, equidistance,
                   validate_geam)
from .linalg import (flip_operator, haar_unitary, max_entangled_projector,
                     random_density_matrix, random_operator,
                     random_rank_k_coefficients, random_trace_one_operator)
from .maps import (Superoperator, Witness, a_coefficient, build_witness,
                   check_rotation, choi_matrix, choi_witness, frame_witness,
                   phi_alpha, phi_k, phi_zero, random_rotation, rotation_set,
                   superop_from_choi)
from .serialize import (load_geam, load_witness, save_geam, save_witness,
                        write_detection_csv)

__version__ = "0.1.0"

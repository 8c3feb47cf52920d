"""Which singular K3 surfaces doubly cover an Enriques surface.

The question is decided from the transcendental lattice alone: a form
(a, b, c) covers exactly when [[2a, c], [c, 2b]] embeds primitively into
U + U(2) + E8(2) with no norm -2 vector orthogonal to the image.  `classify`
answers it and attaches a replayable certificate.
"""

from .classifier import (
    ABSENCE_SLICES,
    Certificate,
    Classification,
    ExhaustiveAbsence,
    ExplicitEmbedding,
    KeumCitation,
    ParityObstruction,
    VinbergWitness,
    case_ii_embedding,
    case_iii_embedding,
    case_of,
    certificate_from_dict,
    certify,
    classify,
    normalize_case_III,
    verify_classification,
)
from .embeddings import (
    Embedding,
    TorsionWitness,
    index_of_split,
    is_primitive,
    orthogonal_complement,
    torsion_witness,
    verify_torsion_witness,
)
from .errors import VerificationError
from .lattices import (
    IntegralLattice,
    Sl2Matrix,
    TranscendentalForm,
    apply_basis_change,
    parity_class,
    standard_lattice,
    to_lattice,
)
from .quadforms import BinaryForm, reduce_form, represents_one, shifted_form
from .shortvec import NormQuery, enumerate_by_norm, enumerate_norm, has_norm
from .vinberg import (
    enumerate_P_slice,
    family_vector,
    in_P,
    max_norm_in_slice,
    search_norm,
    slice_norms,
)

__version__ = "0.1.0"

__all__ = [
    "ABSENCE_SLICES",
    "BinaryForm",
    "Certificate",
    "Classification",
    "Embedding",
    "ExhaustiveAbsence",
    "ExplicitEmbedding",
    "IntegralLattice",
    "KeumCitation",
    "NormQuery",
    "ParityObstruction",
    "Sl2Matrix",
    "TorsionWitness",
    "TranscendentalForm",
    "VerificationError",
    "VinbergWitness",
    "apply_basis_change",
    "case_ii_embedding",
    "case_iii_embedding",
    "case_of",
    "certificate_from_dict",
    "certify",
    "classify",
    "enumerate_P_slice",
    "enumerate_by_norm",
    "enumerate_norm",
    "family_vector",
    "has_norm",
    "in_P",
    "index_of_split",
    "is_primitive",
    "max_norm_in_slice",
    "normalize_case_III",
    "orthogonal_complement",
    "parity_class",
    "reduce_form",
    "represents_one",
    "search_norm",
    "shifted_form",
    "slice_norms",
    "standard_lattice",
    "to_lattice",
    "torsion_witness",
    "verify_classification",
    "verify_torsion_witness",
]

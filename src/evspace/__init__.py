"""Exact toolkit for deciding whether observed conditional probabilities
admit a single classical event space, a real quantum-probability space, or a
complex one, with certificates for either outcome."""

from .core import (CondTriple, CorrelationVector, EventTable, FormatError,
                   Ternary, parse_correlation_vector, parse_event_table,
                   serialize_correlation_vector, serialize_event_table)
from .admissibility import (AdmissibilityVerdict, InvariantReport, bayes_invert,
                            classify, ltp_compose, statistical_invariant)
from .estimation import (Corpus, MissingStrategy, broker_mix, cond_prob,
                         estimate_triple, parse_corpus, smooth_triple,
                         survey_corpus)
from .pitowsky import (CapExceededError, PolytopeCertificate,
                       RankingDecomposition, Witness, build_ranking_vector,
                       closed_form_n3, decompose, membership, vertex_vector)
from .quantum import (Field, NotRepresentableError, QuantumRealization,
                      StateVector, amplitude_prob, realize)

__all__ = [name for name in dir() if not name.startswith("_")]

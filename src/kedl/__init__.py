"""kedl: a reasoning toolkit for the two-sorted description logic KEDL.

KEDL extends ALC with a second concept sort (attribute concepts alongside
object concepts), three role families (object-object, attribute-attribute,
and functional object-attribute cross roles), and inverses on cross roles.
The package provides a parser, a finite-model evaluator, a bounded
brute-force oracle, a tableau decision procedure, a verification suite for
the logic's axioms and algebraic properties, and a compiler from
knowledge-element records into KEDL ontologies.
"""

from .kb import (
    AssertionFormula,
    ConceptAssertion,
    Equivalence,
    Formula,
    Inclusion,
    KnowledgeBase,
    RoleAssertion,
    empty_kb,
)
from .km import (
    AttributeKnowledgeElement,
    KmError,
    ObjectKnowledgeElement,
    RelationalKnowledgeElement,
    parse_km,
    render_kedl,
    translate_to_kb,
    validate_km,
)
from .oracle import (
    Bounds,
    Countermodel,
    Model,
    NoCountermodelUpToBound,
    NoModelUpToBound,
    check_validity_bounded,
    count_models,
    enumerate_interpretations,
    find_model,
)
from .parser import ParseError, parse_concept, parse_concept_with_inference, parse_kb
from .semantics import (
    FormulaReading,
    FunctionalityMode,
    InternedConcepts,
    InternedFormulas,
    Interpretation,
    extension,
    interpretation_from_text,
    interpretation_to_text,
    satisfies_assertion,
    satisfies_formula,
    satisfies_kb,
    validate_interpretation,
)
from .syntax import (
    And,
    Atom,
    Bot,
    ConceptExpr,
    Exists,
    Forall,
    Iff,
    Implies,
    KedlError,
    Not,
    Or,
    RoleKind,
    RoleName,
    Signature,
    Sort,
    SortError,
    Top,
    check_sort,
    concept_to_str,
    desugar,
    invert_role,
    to_nnf,
)
from .tableau import (
    Classification,
    InconsistentKBError,
    SatResult,
    Tableau,
    classify,
    instance_of,
    is_consistent,
    is_satisfiable,
    subsumes,
)
from .axioms import verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

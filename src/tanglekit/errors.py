"""Exception hierarchy.

Three tiers, each carrying the CLI exit code as ``code``:

* malformed input / broken axioms        -> InputError      (exit 1)
* unmet preconditions or hypotheses      -> PreconditionError (exit 2)
* a theorem failed on validated inputs   -> TheoremViolation (exit 3)

Valid input that lacks a structure a call needs, such as a plain separation
system where joins and meets are read, is an unmet precondition, not
malformed input.
"""


class TanglekitError(Exception):
    """Raised through one of the three tiers below.  Keyword arguments are
    the structured fields of the failure report, kept in ``report``."""

    def __init__(self, *args, **report):
        super().__init__(*args)
        self.report = report


class InputError(TanglekitError):
    code = 1


class SystemValidationError(InputError):
    """An axiom failed at load time; carries the axiom name and a witness."""

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} violated, witness {witness!r}",
                         axiom=axiom, witness=repr(witness))


class UnknownHandle(InputError):
    def __init__(self, handle):
        self.handle = handle
        super().__init__(f"unknown oriented handle {handle!r}")


class PreconditionError(TanglekitError):
    code = 2


class BoundExceeded(PreconditionError):
    pass


class NonInjectiveOrder(PreconditionError):
    pass


class NonSubmodularOrder(PreconditionError):
    pass


class NotStandard(PreconditionError):
    pass


class NonStarFamily(PreconditionError):
    pass


class NotIrreducible(PreconditionError):
    pass


class TrivialElementsPresent(PreconditionError):
    pass


class HypothesisFailure(PreconditionError):
    """A stated theorem hypothesis failed its eager check."""


class TheoremViolation(TanglekitError):
    code = 3


class RichnessViolation(TheoremViolation):
    """Builder reached a full closure that avoids no forbidden set anywhere.

    Doubles as an empirical refutation of richness: carries the closure and
    its forbidden subset.
    """

    def __init__(self, closure, forbidden_subset):
        self.closure = closure
        self.forbidden_subset = forbidden_subset
        super().__init__(
            "closure orients all of S, avoids nothing in beta_v, "
            f"but contains forbidden subset {sorted(forbidden_subset)}"
        )


class BothOrNeither(TheoremViolation):
    """Dichotomy failure: both or neither branch validated."""

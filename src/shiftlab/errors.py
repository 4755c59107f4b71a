"""Exception hierarchy shared by all shiftlab modules.

Three classes set the CLI's exit code: ``InputError`` 2 (bad files,
malformed tables, mismatched contexts), ``BoundExceeded`` 3 (a requested
computation is over a hard size cap) and ``VerificationFailedError`` 4, an
internal consistency failure that is never expected on valid inputs and is
deliberately not an ``InputError``.
"""


class ShiftlabError(Exception):
    """Base class for all package errors."""


class InputError(ShiftlabError):
    """Invalid input data or violated operation precondition (CLI exit 2)."""


class BoundExceeded(ShiftlabError):
    """A size/window/search bound was exceeded (CLI exit 3)."""


# -- group validation --------------------------------------------------------

class NotClosedError(InputError):
    def __init__(self, g, h, entry):
        self.witness = (g, h, entry)
        super().__init__(f"table not closed: entry ({g},{h}) = {entry!r} is not an element index")


class NotAssociativeError(InputError):
    def __init__(self, g, h, k):
        self.witness = (g, h, k)
        super().__init__(f"associativity fails at triple ({g},{h},{k})")


class NoIdentityError(InputError):
    def __init__(self):
        super().__init__("table has no two-sided identity element")


class NoInverseError(InputError):
    def __init__(self, g):
        self.witness = g
        super().__init__(f"element {g} has no two-sided inverse")


class OrderBoundExceededError(BoundExceeded):
    def __init__(self, order, bound):
        super().__init__(f"group order {order} exceeds enumeration bound {bound}")


# -- quadratic field arithmetic ----------------------------------------------

class MismatchedFieldError(InputError):
    def __init__(self, d1, d2):
        super().__init__(f"cannot mix quadratic numbers over sqrt({d1}) and sqrt({d2})")


class RationalAlphaError(InputError):
    def __init__(self):
        super().__init__("rotation angle must be irrational (nonzero sqrt coefficient)")


# -- finite systems -----------------------------------------------------------

class GroupMismatchError(InputError):
    pass


class AlphabetMismatchError(InputError):
    pass


class ObservableMissingError(InputError):
    def __init__(self):
        super().__init__("system has no observable installed")


class SeedMismatchError(InputError):
    def __init__(self, g, got, want):
        self.witness = (g, got, want)
        super().__init__(f"observable along the base orbit disagrees with the function at g={g}: "
                         f"got {got!r}, want {want!r}")


class GroupIsDedekindError(InputError):
    def __init__(self):
        super().__init__("group is Dedekind: no non-normal subgroup to build a witness from")


class GroupNotDedekindError(InputError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"group is not Dedekind (witness subgroup {witness})")


class VerificationFailedError(ShiftlabError):
    """An internal re-check failed; indicates a bug, not bad input."""


# -- sequence oracles ----------------------------------------------------------

class WindowTooLargeError(BoundExceeded):
    def __init__(self, length, cap):
        super().__init__(f"window of length {length} exceeds cap {cap}")


class BoundsExceededError(BoundExceeded):
    pass


# -- CLI ------------------------------------------------------------------------

class UnknownIdError(InputError):
    def __init__(self, wanted, known):
        super().__init__(f"unknown fixture id {wanted!r}; known ids: {', '.join(known)}")


class ScenarioError(InputError):
    pass

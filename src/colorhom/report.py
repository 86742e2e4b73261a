"""Check reports: the uniform result type of every identity checker.

A report either passed, or carries the full sorted list of violating
basis tuples together with their defect (LHS - RHS), so a near-miss is
inspectable.  Composite checks nest subreports; consequence checks that
refused to run record the failed precondition report instead.

A violation found by a law scan keeps its defect as the scan's integers
(``tables.Defect``): the machine report is written from them, and the
exact Vector is built only when the library reads ``Violation.defect``.
"""

from __future__ import annotations

from types import MappingProxyType

from .record import Record


class Violation(Record):
    """One failing tuple: the basis indices (or generator indices), the
    exact defect value (a Vector or Scalar, LHS - RHS), and a short note.

    A law scan passes its defect as a ``tables.Defect``, integers over one
    denominator.  ``raw`` keeps the defect as it was passed, so a report
    writes it from those integers, and violations compare by it;
    ``defect`` builds the Vector from a ``Defect`` the first time it is
    read, and keeps it."""

    FIELDS = ("args", "raw", "note")
    __slots__ = FIELDS + ("_exact",)

    def __init__(self, args, raw=None, note=""):
        # set directly, as Vector.__init__ does: one per failing tuple
        _set_args(self, args)
        _set_raw(self, raw)
        _set_note(self, note)

    @property
    def defect(self):
        try:
            return self._exact
        except AttributeError:
            pass
        from .tables import Defect  # tables builds on this module

        exact = self.raw.vector() if isinstance(self.raw, Defect) else self.raw
        object.__setattr__(self, "_exact", exact)
        return exact

    def __repr__(self):
        return f"Violation(args={self.args!r}, defect={self.defect!r}, note={self.note!r})"

    def describe(self):
        loc = ",".join(str(a) for a in self.args)
        text = f"at ({loc})"
        if self.defect is not None:
            text += f" defect {self.defect}"
        if self.note:
            text += f" [{self.note}]"
        return text


_set_args, _set_raw, _set_note = Violation._setters


class CheckReport(Record):
    __slots__ = FIELDS = ("identity_id", "violations", "subreports", "flags",
                          "precondition_failure", "note")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __init__(self, identity_id, violations=(), subreports=(), flags=None,
                 precondition_failure=None, note=""):
        super().__init__(identity_id, violations, subreports,
                         MappingProxyType(dict(flags or ())), precondition_failure, note)

    @property
    def passed(self) -> bool:
        if self.precondition_failure is not None:
            return False
        if self.violations:
            return False
        return all(sub.passed for sub in self.subreports)

    def leaves(self):
        """Depth-first leaf reports in fixed order (self when no subreports)."""
        if not self.subreports:
            yield self
            return
        for sub in self.subreports:
            yield from sub.leaves()

    def find(self, identity_id):
        for leaf in self.leaves():
            if leaf.identity_id == identity_id:
                return leaf
        return None

    def describe(self, limit=5):
        lines = []
        for leaf in self.leaves():
            if leaf.precondition_failure is not None:
                lines.append(
                    f"{leaf.identity_id}: SKIPPED "
                    f"(precondition {leaf.precondition_failure.identity_id} failed)"
                )
                continue
            if leaf.passed:
                lines.append(f"{leaf.identity_id}: PASS")
            else:
                lines.append(
                    f"{leaf.identity_id}: FAIL ({len(leaf.violations)} violations)"
                )
                for v in leaf.violations[:limit]:
                    lines.append(f"  {v.describe()}")
                if len(leaf.violations) > limit:
                    lines.append(f"  ... {len(leaf.violations) - limit} more")
        return "\n".join(lines)

    def __repr__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"CheckReport({self.identity_id}: {state})"


def sorted_violations(violations):
    return tuple(sorted(violations, key=lambda v: (v.args, v.note)))

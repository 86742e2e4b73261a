"""Every fault of ``tests/mutants.py`` still applies: its old text occurs
exactly once in its file, by the rule ``tests/mutation_gate.py`` applies
before it runs any fault.  A refactor that moves a fault's code fails
here, in tier-1, rather than only in the gate's own slow run."""

from mutants import FAULTS
from mutation_gate import check_faults


def test_every_fault_text_occurs_once():
    assert check_faults(FAULTS) == []

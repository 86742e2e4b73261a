"""Faults the tier-1 suite must catch, run by ``tests/mutation_gate.py``.

Each fault is one edit to a file under ``src/``: (path, old text, new text,
what it breaks).  The old text occurs exactly once in the file.  A fault
that passes the suite names a behaviour no test pins down; an engine change
adds faults for the code it introduces."""

FAULTS = [
    # the engine
    ("colorhom/checkers.py", "eps=[(E_ma, 1, 0)]", "eps=[(E_am, 0, 1)]",
     "module-mixed law reads eps(x, m) for eps(m, x)"),
    ("colorhom/tables.py",
     "entry = coords[i][b] if arg == 0 else coords[b][i]",
     "entry = coords[b][i] if arg == 0 else coords[i][b]",
     "twisted images read the untwisted argument's slot"),
    ("colorhom/tables.py", "if any(any(v[1:]) for e, _, _ in eps for row in e.at for v in row):",
     "if False:",
     "the phase set ignores an eps with a zeta part, so images it reads are ()"),
    ("colorhom/tables.py", "None if any(a[1:]) else a[0]", "a[0]",
     "a twist coefficient with a zeta part is scaled as a rational one"),
    ("colorhom/tables.py", "phases = (0,)", "phases = ()",
     "a basis-vector source reads no phase, not phase 0"),
    ("colorhom/constructions.py", "bn.power(op.arity - 1)", "bn.power(op.arity)",
     "a twisted k-ary operation takes beta^(nk), not beta^(n(k-1))"),
    ("colorhom/constructions.py", "alg.twist.power(2 * n)", "alg.twist.power(n)",
     "a module twist composes the actions with t^n, not t^(2n)"),
    ("colorhom/linalg.py", "            for i in value.coeffs:",
     "            for i in list(value.coeffs)[:1]:",
     "evenness looks at one output component per entry"),
    # the frozen values
    ("colorhom/linalg.py", 'object.__setattr__(self, "coeffs", MappingProxyType(clean))',
     'object.__setattr__(self, "coeffs", clean)',
     "a parsed vector's coefficients take item writes"),
    ("colorhom/linalg.py", 'object.__setattr__(v, "coeffs", MappingProxyType(coeffs))',
     'object.__setattr__(v, "coeffs", coeffs)',
     "a computed vector's coefficients take item writes"),
    ("colorhom/linalg.py", "super().__init__(spaces, codomain, MappingProxyType(clean))",
     "super().__init__(spaces, codomain, clean)",
     "a map's table takes item writes"),
    ("colorhom/report.py", "MappingProxyType(dict(flags or ()))", "dict(flags or ())",
     "a stored report's flags take item writes"),
    ("colorhom/scalars.py", "__setattr__ = __delattr__ = Record.__setattr__",
     "__setattr__ = Record.__setattr__",
     "a scalar's fields can be deleted"),
    ("colorhom/scalars.py", "return cyclotomic_field, (self.cyclotomic_order,)",
     "return Record.__reduce__(self)",
     "a copied scalar gets a second field object, which a Vector of the field refuses"),
    ("colorhom/tables.py",
     "return tuple([_grid(dims[1:], leaf, prefix + (i,)) for i in range(dims[0])])",
     "return [_grid(dims[1:], leaf, prefix + (i,)) for i in range(dims[0])]",
     "a compiled table's entries take item writes, which every later scan reads"),
    ("colorhom/record.py", "dict(v) if isinstance(v, MappingProxyType) else v", "v",
     "copy and pickle meet a read-only view, which they cannot rebuild"),
]

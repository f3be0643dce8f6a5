"""The gmpy2 branch of the scalar type, exercised through a stand-in module.

gmpy2 is optional, so this puts a small `gmpy2` on sys.path whose `mpq` is a
rational type distinct from fractions.Fraction and closed under arithmetic.
Row reduction, kernels, solves, products by unit and Kronecker factors, products
whose sums cancel and a p = 3 descent must give the same str() output with it
as with the fallback linalg.Q; the stand-in's operators are Fraction's own, so
this also compares Q's integer fast paths with Fraction arithmetic.  Every
entry they return must be a nonzero mpq (a Q on the fallback), and every entry
equal to 1 that a constructor stores must be the shared ONE.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STAND_IN = textwrap.dedent('''
    from fractions import Fraction


    class mpq(Fraction):
        __slots__ = ()

        def __repr__(self):
            return f"mpq({self.numerator},{self.denominator})"


    def _closed(name):
        op = getattr(Fraction, name)

        def method(*args):
            out = op(*args)
            return mpq(out) if isinstance(out, Fraction) else out
        return method


    for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__mod__", "__rmod__",
                  "__neg__", "__pos__", "__abs__"):
        setattr(mpq, _name, _closed(_name))
''')

SCRIPT = textwrap.dedent('''
    import io
    import sys
    from contextlib import redirect_stdout

    from hopfgalois import cli
    from hopfgalois.catalog import catalog
    from hopfgalois.descent import descend, group_algebra
    from hopfgalois.extensions import splitting_field_cubic
    from hopfgalois.algebra import Algebra
    from hopfgalois.linalg import ONE, Matrix, Q, kernel_form, mul_kron, rational

    print("backend", Q.__module__)


    def show(name, m):
        if m is None:
            print(name, None)
            return
        stored = [x for i in range(m.rows) for _, x in m.row_entries(i)]
        bad = [x for x in stored if type(x) is not Q]
        if bad:
            sys.exit(f"{name}: entry of type {type(bad[0]).__name__}")
        if not all(stored):
            sys.exit(f"{name}: a stored zero")
        print(name, m.rows, m.cols, [str(x) for x in m.entries])


    def shares_one(name, m):
        if any(x == 1 and x is not ONE for i in range(m.rows) for _, x in m.row_entries(i)):
            sys.exit(f"{name}: an entry equal to 1 that is not ONE")
        show(name, m)


    m = Matrix.from_rows([[rational(x) for x in row] for row in (
        ["0", "3/4", "-5", "1/3", "0"],
        ["2", "0", "7/9", "0", "-1"],
        ["4", "3/2", "-82/9", "2/3", "-2"],
        ["0", "0", "0", "0", "0"],
        ["12345678901234567890123456789/7", "1", "0", "-2/5", "3"],
    )])
    red, pivots = m.rref()
    show("rref", red)
    print("pivots", pivots)
    show("kernel", m.kernel())
    rhs = m * Matrix.from_rows([[Q(k - j, 1 + j) for j in range(2)] for k in range(5)])
    show("solve", m.solve(rhs))
    show("inverse", (m + Matrix.identity(5)).inverse())
    # left factors equal to one (shared, fresh and unnormalized) add rows without arithmetic
    unit = Matrix.from_rows([[Q(1), Q(0), Q(2, 2), Q(0), Q(0)], [Q(0)] * 4 + [rational("1")]])
    show("unit-product", unit * m)
    show("unit-scaled", m * 1)
    show("mul-kron", mul_kron(unit, m, Matrix.from_rows([[Q(2, 2), rational("-1/3")]])))
    # sums that cancel, to zero or to 1, with shared and fresh (1/2 * 2) ones
    a = Matrix.from_rows([[1, 1, 0, 2], [2, -1, 1, 0], [0, 0, 0, 0]])
    b = Matrix.from_rows([[1, -1], [-1, 1], [0, 3], [1, Q(1, 2)]])
    show("cancel-product", a * b)
    show("cancel-fresh", a * (b * Q(1, 2) * 2))
    show("cancel-sum", a + (-a) + Matrix.from_rows([[0, 0, 0, 1]] * 3))
    show("cancel-mul-kron", mul_kron(a, Matrix.from_rows([[1, -1], [-1, 1]]), Matrix.identity(2)))
    shares_one("ones-from-entries", Matrix.from_entries(2, 2, [
        (0, 0, 1), (1, 1, "1"), (0, 1, Q(1, 2)), (0, 1, Q(1, 2)), (1, 0, Q(2, 2))]))
    shares_one("ones-from-rows", Matrix.from_rows([[Q(2, 2), "1", 1, Q(3, 3)]]))
    shares_one("ones-kernel-form", kernel_form(Matrix.from_rows([[2, 1], [4, 2]])))
    shares_one("ones-identity", Matrix.identity(2))
    shares_one("ones-rref", m.rref()[0])
    unit = Algebra(Matrix.from_rows([[1]]), [Q(2, 2)]).unit
    if unit[0] is not ONE:
        sys.exit("ones-unit: the unit of an Algebra is not ONE")

    L = splitting_field_cubic(2)
    for entry in catalog(3):
        H = descend(group_algebra(L, entry.subgroup), label=entry.label)
        for part in ("mult", "comul", "counit", "antipode"):
            show(f"{entry.label}.{part}", getattr(H, part))
        show(f"{entry.label}.basis", H.provenance.basis)
        print(entry.label, "unit", [str(x) for x in H.unit])
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["descend", "--p", "3", "--structure", "lambda", "--field", "cubic:2"])
    print("cli", code)
    print(out.getvalue())
''')


def run_script(tmp_path, with_stand_in):
    """Run SCRIPT with the stand-in gmpy2, or with gmpy2 made unimportable so
    that the Fraction fallback runs even where gmpy2 is installed."""
    stub = tmp_path / ("stand_in" if with_stand_in else "blocked")
    stub.mkdir()
    (stub / "gmpy2.py").write_text(STAND_IN if with_stand_in else "raise ImportError\n")
    script = "import sys\nsys.path[:0] = " + repr([str(stub), str(SRC)]) + "\n" + SCRIPT
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_stand_in_mpq_gives_the_fraction_output(tmp_path):
    plain = run_script(tmp_path, with_stand_in=False)
    stood_in = run_script(tmp_path, with_stand_in=True)
    assert plain.startswith("backend hopfgalois.linalg\n")
    assert stood_in.startswith("backend gmpy2\n")
    assert "cli 0\n" in plain
    assert stood_in.split("\n", 1)[1] == plain.split("\n", 1)[1]

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_prints_the_values_its_comments_state():
    # the README's one python block: imports, then one call per commented line
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace, stated = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            stated.append((eval(code, namespace), comment.strip()))
        else:
            exec(code, namespace)
    (closed, closed_note), (quadrature, quadrature_note), (levels, levels_note) = stated
    assert closed_note == repr(closed) == "-2.3228824998147894"
    # the two entropy methods agree to 1e-8 k_B, as entropy_expectation documents
    assert quadrature_note == "same value via integration"
    assert abs(quadrature - closed) <= 1e-8
    assert levels_note == "pi**2 * (1, 4, 9)"
    assert levels == tuple(math.pi**2 * k for k in (1, 4, 9))

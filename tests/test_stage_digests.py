"""`tools/stage_digests.py`: one digest per output, and a different one for each
different output.

Importing the tool puts `src` and `perfbench` on `sys.path` and sets the BLAS
thread variables of `os.environ`, so the digests are taken in a subprocess
and no other test sees that import.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

DIGEST_EACH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import stage_digests
scope = {"np": stage_digests.np}
pairs = json.loads(sys.argv[2])
print(json.dumps({name: [stage_digests.digest(eval(expr, scope)) for expr in pair]
                  for name, pair in pairs.items()}))
"""

# each pair is two different outputs
DIFFERENT = {
    "ints run together": ("[11, 1]", "[1, 11]"),
    "a source tuple": ("('v', 1, 23)", "('v', 12, 3)"),
    "a loss log": ("[(1, 10.5)]", "[(11, 0.5)]"),
    "signed zeros": ("-0.0", "0.0"),
    "float widths": ("np.array([0.5, 1.5, -2.0], np.float32)",
                     "np.array([0.5, 1.5, -2.0], np.float64)"),
    "shapes of the same bytes": ("np.arange(6.0).reshape(2, 3)",
                                 "np.arange(6.0).reshape(3, 2)"),
    "nesting": ("[['a'], 'b']", "['a', ['b']]"),
}

# each pair is one output: a view against its contiguous copy
SAME = {
    "strided view": ("np.arange(12.0).reshape(3, 4)[:, ::2]",
                     "np.arange(12.0).reshape(3, 4)[:, ::2].copy()"),
    "transposed view": ("np.arange(6.0).reshape(2, 3).T",
                        "np.ascontiguousarray(np.arange(6.0).reshape(2, 3).T)"),
}


@pytest.fixture(scope="module")
def digests():
    run = subprocess.run([sys.executable, "-c", DIGEST_EACH, str(TOOLS),
                          json.dumps(DIFFERENT | SAME)],
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


@pytest.mark.parametrize("name", DIFFERENT)
def test_different_outputs_get_different_digests(digests, name):
    a, b = digests[name]
    assert a != b


@pytest.mark.parametrize("name", SAME)
def test_a_view_gets_its_contiguous_copys_digest(digests, name):
    a, b = digests[name]
    assert a == b

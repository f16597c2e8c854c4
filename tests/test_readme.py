"""The README's library example: it runs against the package as it is, and
each value it shows in a comment is the repr of the expression that the
comment ends or follows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_shows_true_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.splitlines() + [""]
    namespace: dict = {}
    shown = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        inline = lines[node.end_lineno - 1].partition("#")[2]
        below = lines[node.end_lineno].strip()
        comment = inline or (below[1:] if below.startswith("#") else "")
        assert comment.strip() == repr(value), ast.get_source_segment(block, node)
        shown += 1
    assert shown == 4

import ast
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    # every expression in the Library example whose comment is a literal
    # must evaluate to that literal
    text = README.read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        try:
            stated = ast.literal_eval(lines[stmt.lineno - 1].partition("#")[2].strip())
        except (SyntaxError, ValueError):
            continue
        assert value == stated, ast.unparse(stmt)
        checked.append(stated)
    assert checked == [{0: 1, 2: 10, 4: 5}, (2, 0.125), True]

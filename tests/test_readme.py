"""README's Library example runs as printed, so a change to the public API
cannot leave it broken."""

import io
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_the_readme_says():
    library = README.read_text().split("## Library", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    printed = library.split("```text\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
    assert len(printed.splitlines()) == 4

"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block, "README.md has no ```python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["result"].records and namespace["cross"].records

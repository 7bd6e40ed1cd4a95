"""The nine fixture hashes of ``scripts/fixture_digest.py``, pinned.

Equal hashes mean byte-identical datasets, training artifacts, evaluation
output and gradients (see the script's docstring). A change that moves the
bits on purpose updates these lines and says so in CHANGES.md.
"""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "fixture_digest.py")

PINNED = """\
data 2c4a045de0a00bcd6ef19f175f11baa0024d07d41c353d1ce583dd323d2d7e4b
curve b647a2a5942d0e72cec52d2d89618407ade7e5d5bbe40628eb29547251c91642
checkpoint 2460020180c5a6d245abbe7e0fe461a700a36fda97cdc2877fd030646bbc435d
eval 8cdace9dfe365cdc93c50d320498f7f90f26fd3120d4b503a99746b3dc1be342
gradcheck linear x1 7def300f7a600c0e1de292617a66757bdde757a3aefb2bee2d2db03fe0186fd3
gradcheck fc-lstm x1 1f1fb5f58e71fe9b0df1d924dd45b35a66df4a4021d29fe4bb96e173da542b53
gradcheck fc-lstm x2 5bfd99e34b3e09ddc111afdbf43ede3eb1687c1c8fed20e97dbc45798e0f9ccb
gradcheck conv-lstm x1 d9ddf79c1183994027e3f0ffb17b5bc6228cadccc194ac34f9a13b0e42eb3ad3
gradcheck conv-lstm x2 4712dbcc0bb7df7a3ce21027e8c8e03bfe3ead68f5981041b2154fbec212e05d
"""


def test_fixture_hashes_are_unchanged():
    out = subprocess.run(
        [sys.executable, SCRIPT], capture_output=True, text=True, timeout=300, check=True
    )
    assert out.stdout.splitlines() == PINNED.splitlines()

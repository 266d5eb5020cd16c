"""Test set-up for the benchmark's own tests: import bimult from ./src and
the benchmark modules from this directory.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

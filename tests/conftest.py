import os
import sys

_TESTS = os.path.dirname(os.path.abspath(__file__))
# the oracles sit next to the tests; orbitlab imports from src/ without an install
sys.path[:0] = [_TESTS, os.path.join(os.path.dirname(_TESTS), "src")]

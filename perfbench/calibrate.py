"""Fixed reference work, timed before every no-work invocation.

It starts the interpreter and imports what the gfdenoise CLI imports from
outside the package, and nothing else. The benchmark scales its times by
this script's median time, so that changes in the speed of a shared machine
cancel; the script never changes and does not use gfdenoise.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import json  # noqa: F401
import struct  # noqa: F401
import warnings  # noqa: F401

import numpy  # noqa: F401

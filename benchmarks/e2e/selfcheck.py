#!/usr/bin/env python3
"""Fast end-to-end check of the benchmark itself: ``run.py --selfcheck``."""

import sys

from run import selfcheck

if __name__ == "__main__":
    sys.exit(selfcheck())

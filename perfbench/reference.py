"""Fixed calibration process, timed next to every measured invocation.

The host is shared, so its speed drifts by tens of percent over minutes.
This process does the kinds of work a ``repro`` run does (interpreter
start-up, module imports, dict and string bytecode, numpy dispatch on
small arrays, passes over arrays larger than the caches) and depends on
nothing in the repository, so a change to the repository cannot move
it. Changing it rescales every reported time.
"""

import argparse  # noqa: F401  (the imports are part of the work)
import asyncio  # noqa: F401
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import decimal  # noqa: F401
import difflib  # noqa: F401
import email.message  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import sqlite3  # noqa: F401
import statistics  # noqa: F401
import tarfile  # noqa: F401
import unittest  # noqa: F401
import xml.dom.minidom  # noqa: F401
import zipfile  # noqa: F401

import numpy as np


def work() -> int:
    table = {}
    total = 0
    for i in range(60_000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    lanes = np.arange(8, dtype=np.float64)
    for _ in range(5_000):
        lanes = np.maximum(lanes * 0.5 + 1.0, lanes - 2.0)
    grid = np.arange(1_000_000, dtype=np.float64)
    for _ in range(25):
        grid = np.sqrt(grid * 1.0001 + 1.0)
    return total + int(lanes.sum() + grid[-1])


if __name__ == "__main__":
    work()

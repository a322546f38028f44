"""Physical unit constants and conversion helpers.

The library stores quantities in SI base units internally:

* frequency  -> hertz (Hz)
* time       -> seconds (s)
* power      -> watts (W)
* energy     -> joules (J)
* bandwidth  -> bytes per second (B/s)
* capacity   -> bytes (B)

The constants below make call sites read like the paper's prose
(``925 * MHZ``, ``264 * GB_PER_S``) instead of sprinkling ``1e6``/``2**30``
literals around, and the helpers centralise the handful of conversions the
analysis and reporting code needs.
"""

from __future__ import annotations

# --- frequency ---------------------------------------------------------
KHZ = 1.0e3
MHZ = 1.0e6
GHZ = 1.0e9

# --- capacity / traffic ------------------------------------------------
KB = 1024.0
MB = 1024.0 * KB
GB = 1024.0 * MB

# Bandwidth vendor-style (decimal) units: a "264 GB/s" GDDR5 interface is
# 264e9 bytes per second, not 264 * 2**30.
GB_PER_S = 1.0e9

# --- time ---------------------------------------------------------------
NS = 1.0e-9
US = 1.0e-6
MS = 1.0e-3

# --- convenience conversions -------------------------------------------


def hz_to_mhz(freq_hz: float) -> float:
    """Convert a frequency in hertz to megahertz."""
    return freq_hz / MHZ

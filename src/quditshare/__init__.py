"""Qudit protocol simulator and threshold secret-sharing toolkit.

Simulates the reconstruction phase of a (t, n) threshold d-level quantum
secret sharing scheme: Shamir share arithmetic over Z_d, a state-vector
engine for t qudits, protocol runs with full transcripts, and analysis tools
quantifying when the lone measuring agent can (and cannot) recover the secret.

The package binds only __version__; callers import each name from its module.
"""

__version__ = "0.6.0"

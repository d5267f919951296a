"""Two-qubit polarization entanglement through lossy fiber channels.

Simulates Bell-diagonal states under per-arm polarization dependent loss and
first-order PMD dephasing, checks the closed-form concurrence and rate laws
against brute-force density-matrix propagation, and reproduces the nonlocal
compensation protocol (designed and searched) with optional tomography noise.
"""

__version__ = "0.1.0"

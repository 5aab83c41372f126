"""defectbethe: numerical workbench for integrable spin chains with a
single spin-S transmitting defect.

Modules
-------
special_functions  log Gamma, balanced Gamma products, log-Fourier integrals
spin_algebra       spin-S and q-deformed representations, model parameters
lax_operators      R-matrices, defect Lax matrices, YBE/RLL residuals
spin_chain         transfer matrix, Hamiltonian, Bethe equations
amplitudes         kink S-matrix, defect transmission amplitudes/matrices
physics_checks     spectra, unitarity, crossing, RTT, Casimir identities
cli                command-line verification and sweep driver
"""

__version__ = "0.1.0"

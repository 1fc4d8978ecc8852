"""Every tolerance and cap of the package, each with what it bounds; modules define none."""

DETECTION_TOLERANCE = 1e-10  # a check says Entangled only where lhs - rhs exceeds it
PPT_TOL = 1e-10  # the PPT oracle says PPT while the smallest PT eigenvalue is at least -PPT_TOL
RADICAND_TOL = 1e-10  # a ceiling input clamps to 0 down to -RADICAND_TOL and raises below it
HERMITICITY_TOL = 1e-9  # largest |m - m^H| entry of a state or of an eigen-route input
TRACE_TOL = 1e-9  # largest |Tr - 1| of a state
PSD_TOL = 1e-10  # a state's smallest eigenvalue may be as low as -PSD_TOL
WEIGHT_TOL = 1e-10  # largest |sum of weights - 1| of an ensemble
MINOR_SLACK = 1e-12  # roundoff that a family's positivity conditions on its minors forgive
KET_NORM_TOL = 1e-9  # largest |norm - 1| of a ket in an ensemble file
MAX_DIMENSION = 4096  # largest matrix order, product of dims and number of separable terms
MAX_BASIS_DIMENSION = 32  # largest Gell-Mann basis dimension: d^2 - 1 matrices of d x d
MAX_SCAN_POINTS = 100_000  # most points in a scan range
RANGE_SLACK = 1e-9  # share of a step by which a range's count rounds up and its end snaps to stop

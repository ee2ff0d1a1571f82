#!/usr/bin/env bash
# Smoke test of the installed `qduet` command (the [project.scripts] entry
# point, which the tests never call: they use cli.main or python -m qduet).
#
# Usage: bash ci/smoke.sh   (with `qduet` on PATH)
#
# Fails unless the propagator defect it prints is at rounding scale
# (5.4e-15 on fig1-left), and so are the form defect (2.8e-17 on
# fig1-left), the master-equation deviation (1.6e-14 on fig1-left) and the
# LTP residual's distance to dmu (1.9e-16 on fig1-left, 1.4e-16 to 2.3e-16
# on the presets).  The master-equation deviation ties the whole run, bath
# included, to the Lindblad equation under the same H.  A closed run
# (lambda1 = lambda2 = 0), where that equation is the Schrodinger
# evolution under H, must read at rounding scale too: master-equation
# deviation 5.2e-15 and form defect 1.7e-16.  Three runs
# lie above the eigen route's limit, cond(P) <= 1e3, and each must take
# the table route with its defect at rounding scale: the exchange
# exceptional point (cond(P) 9.0e7, defect 2.2e-16), a point just off it
# (cond(P) 3.2e3, 2.1e-16) and the cooperation exceptional point (cond(P)
# 9.0e7, 2.4e-16, with an LTP distance of 2.2e-16 and a master-equation
# deviation of 7.8e-16).  Outputs go to
# $RUNNER_TEMP when it is set, made if missing, else to a new temporary
# directory.
set -eo pipefail

tmp=${RUNNER_TEMP:-$(mktemp -d)}
mkdir -p "$tmp"

# exit 0 when the float $1 is at most $2; an empty $1 is not a float
at_most() {
  python -c 'import sys; sys.exit(0 if float(sys.argv[1]) <= float(sys.argv[2]) else 1)' "$1" "$2"
}

qduet --list-presets
qduet --preset fig1-left --oracle --out "$tmp/smoke" > "$tmp/smoke.out"
cat "$tmp/smoke.out"
defect=$(sed -n 's/^oracle: propagator defect \([^ ]*\) at .*/\1/p' "$tmp/smoke.out")
at_most "$defect" 1e-13
form=$(sed -n 's/^oracle: form defect \([^ ]*\)$/\1/p' "$tmp/smoke.out")
at_most "$form" 1e-13
deviation=$(sed -n 's/^oracle: master-equation deviation \([^ ]*\)$/\1/p' "$tmp/smoke.out")
at_most "$deviation" 1e-13

qduet --preset fig1-left --ltp --no-csv --out "$tmp/smoke" > "$tmp/ltp.out"
cat "$tmp/ltp.out"
ident=$(sed -n 's/^ltp: .*max |R - dmu|=\([^ ]*\)$/\1/p' "$tmp/ltp.out")
at_most "$ident" 1e-14

# omega = Omega = (1, 1), lambda_j = sqrt(Gamma_j / pi) with Gamma = (2, 1)
# and mu_ex = 0.5: U is defective
cat > "$tmp/ep.json" <<'JSON'
{"omega1": 1.0, "omega2": 1.0, "Omega1": 1.0, "Omega2": 1.0,
 "lambda1": 0.7978845608028654, "lambda2": 0.5641895835477563,
 "mu_ex": 0.5, "mu_coop": 0.0, "N1": 0.0, "N2": 1.0,
 "alpha": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
 "t_max": 5.0, "dt": 0.001, "label": "ep"}
JSON
qduet --scenario "$tmp/ep.json" --oracle --no-csv --out "$tmp/smoke" > "$tmp/ep.out"
cat "$tmp/ep.out"
# empty, and so not a float, unless the line ends in (fallback)
defect=$(sed -n 's/^oracle: propagator defect \([^ ]*\) at .* (fallback)$/\1/p' "$tmp/ep.out")
at_most "$defect" 1e-13

# mu_ex = 0.5 + 1e-7, just off the point: U is diagonalisable, but
# cond(P) = 3.2e3 puts it above the eigen route's limit
sed 's/"mu_ex": 0.5,/"mu_ex": 0.5000001,/; s/"label": "ep"/"label": "band"/' \
  "$tmp/ep.json" > "$tmp/band.json"
qduet --scenario "$tmp/band.json" --oracle --no-csv --out "$tmp/smoke" > "$tmp/band.out"
cat "$tmp/band.out"
defect=$(sed -n 's/^oracle: propagator defect \([^ ]*\) at .* (fallback)$/\1/p' "$tmp/band.out")
at_most "$defect" 1e-13

# omega = (1, -1), Gamma = (2, 1), mu_coop = 0.5 and mu_ex = 0: U has two
# double eigenvalues, and cond(P) = 9.0e7 sends it to the table route
cat > "$tmp/coop.json" <<'JSON'
{"omega1": 1.0, "omega2": -1.0, "Omega1": 1.0, "Omega2": 1.0,
 "lambda1": 0.7978845608028654, "lambda2": 0.5641895835477563,
 "mu_ex": 0.0, "mu_coop": 0.5, "N1": 0.0, "N2": 1.0,
 "alpha": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
 "t_max": 5.0, "dt": 0.001, "label": "coop"}
JSON
qduet --scenario "$tmp/coop.json" --oracle --ltp --no-csv --out "$tmp/smoke" > "$tmp/coop.out"
cat "$tmp/coop.out"
defect=$(sed -n 's/^oracle: propagator defect \([^ ]*\) at .* (fallback)$/\1/p' "$tmp/coop.out")
at_most "$defect" 1e-13
ident=$(sed -n 's/^ltp: .*max |R - dmu|=\([^ ]*\)$/\1/p' "$tmp/coop.out")
at_most "$ident" 1e-14
deviation=$(sed -n 's/^oracle: master-equation deviation \([^ ]*\)$/\1/p' "$tmp/coop.out")
at_most "$deviation" 1e-13

# lambda1 = lambda2 = 0: the master equation is the closed evolution
cat > "$tmp/closed.json" <<'JSON'
{"omega1": 1.0, "omega2": 2.0, "Omega1": 0.1, "Omega2": 0.1,
 "lambda1": 0.0, "lambda2": 0.0,
 "mu_ex": 3.0, "mu_coop": 2.0, "N1": 0.0, "N2": 1.0,
 "alpha": [[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.0]],
 "t_max": 5.0, "dt": 0.001, "label": "closed"}
JSON
qduet --scenario "$tmp/closed.json" --oracle --no-csv --out "$tmp/smoke" > "$tmp/closed.out"
cat "$tmp/closed.out"
deviation=$(sed -n 's/^oracle: master-equation deviation \([^ ]*\)$/\1/p' "$tmp/closed.out")
at_most "$deviation" 1e-13
form=$(sed -n 's/^oracle: form defect \([^ ]*\)$/\1/p' "$tmp/closed.out")
at_most "$form" 1e-13

# a second source is a usage error: exit status 1
status=0
qduet --list-presets --preset fig1-left || status=$?
test "$status" -eq 1

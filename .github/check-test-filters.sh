#!/usr/bin/env bash
# check-test-filters.sh WORKFLOW
#
# `go test -run X`, `-fuzz X` and `-bench X` exit 0 when X matches nothing,
# so a renamed test silently empties a filtered CI step. For every `go test`
# command in WORKFLOW that names packages and a filter (other than '^$' and
# '.'), this lists what the filter matches with `go test -list` and fails
# when a named package matches nothing, or when one of the filter's
# top-level |-alternatives matches nothing in any of them. Run it from the
# module root.
set -euo pipefail

workflow=${1:?usage: check-test-filters.sh WORKFLOW}
status=0

# matches FILTER PKG prints the tests, fuzz targets and benchmarks of PKG
# that FILTER selects, one a line.
matches() {
	go test -list "$1" "$2" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true
}

while IFS= read -r line; do
	read -ra words <<<"${line#*go test }"
	filters=() pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]//\'/}
		case $w in
		-run | -fuzz | -bench) filters+=("${words[i + 1]//\'/}") && i=$((i + 1)) ;;
		-run=* | -fuzz=* | -bench=*) filters+=("${w#*=}") ;;
		./*) pkgs+=("$w") ;;
		esac
	done
	for f in "${filters[@]}"; do
		[[ $f == '^$' || $f == . || ${#pkgs[@]} -eq 0 ]] && continue
		for pkg in "${pkgs[@]}"; do
			if [[ -z $(matches "$f" "$pkg") ]]; then
				echo "$workflow: filter '$f' matches nothing in $pkg: $line" >&2
				status=1
			fi
		done
		IFS='|' read -ra alts <<<"$f"
		((${#alts[@]} > 1)) || continue
		for alt in "${alts[@]}"; do
			hit=
			for pkg in "${pkgs[@]}"; do
				[[ -n $(matches "$alt" "$pkg") ]] && hit=1 && break
			done
			if [[ -z $hit ]]; then
				echo "$workflow: '$alt' of filter '$f' matches nothing in ${pkgs[*]}: $line" >&2
				status=1
			fi
		done
	done
done < <(grep -E '(^|[[:space:]])go test ' "$workflow")

exit $status

# Runs each front end with a shard, thread, repeat, ring size, shift or
# Tfactor it cannot take and requires exit status 2 (usage error with a
# message). Without the checks these commands hang (a non-power-of-two
# shard count indexes past the stripe table, a negative run count wraps),
# die with SIGFPE (zero shards or threads), undercount (more threads than
# StatsShardCount alias onto single-writer stats shards), size the commit
# ring out of range (2^44 slots throw bad_alloc; a 64-bit shift is
# undefined and wrapped to one slot), shift a yield mask by 64 or more
# bits (undefined), publish a snapshot of zero medians (zero repeats),
# save an empty model (zero runs or threads, or 2^32 runs, which wrap to
# zero in a 32-bit count), guide with a Tfactor below 1 (no transition
# admitted; an assert in a Debug build), print a row of zeros as a result
# (zero or 2^32 runs, zero frames), or silently fall back to
# defaults (a thread count out of range, a misspelled or removed key, a
# value that does not parse, an unknown size class or quest), or run
# every experiment before an unknown workload name and then exit 1. A case
# whose bad value used to exit 2 for an unrelated reason also names the
# message it must print. Invoked by the `cli_rejects_bad_counts` ctest:
#
#   cmake -DCHECK_FUZZ=<check_fuzz> -DOLTP_YCSB=<oltp_ycsb>
#         -DBENCH_RUNNER=<bench_runner> -DMODEL_CTL=<model_ctl>
#         -DPAPER_STAMP=<paper_stamp>
#         -DPAPER_SYNQUAKE=<paper_synquake> -DQUICKSTART=<quickstart>
#         -DSTM_LINT=<stm_lint> -DBENCH_REGRESS=<bench_regress>
#         -DGAME_SERVER=<game_server>
#         -DABLATION_TFACTOR=<ablation_tfactor> -P CliRejects.cmake

if(NOT CHECK_FUZZ OR NOT OLTP_YCSB OR NOT BENCH_RUNNER OR NOT MODEL_CTL
   OR NOT PAPER_STAMP OR NOT PAPER_SYNQUAKE OR NOT QUICKSTART
   OR NOT STM_LINT OR NOT BENCH_REGRESS OR NOT GAME_SERVER
   OR NOT ABLATION_TFACTOR)
  message(FATAL_ERROR
      "usage: cmake -DCHECK_FUZZ=<bin> -DOLTP_YCSB=<bin> "
      "-DBENCH_RUNNER=<bin> -DMODEL_CTL=<bin> -DPAPER_STAMP=<bin> "
      "-DPAPER_SYNQUAKE=<bin> -DQUICKSTART=<bin> -DSTM_LINT=<bin> "
      "-DBENCH_REGRESS=<bin> -DGAME_SERVER=<bin> "
      "-DABLATION_TFACTOR=<bin> -P CliRejects.cmake")
endif()

# expect_usage_error(<command>... [MESSAGE <regex>])
function(expect_usage_error)
  cmake_parse_arguments(ARG "" "MESSAGE" "" ${ARGN})
  execute_process(COMMAND ${ARG_UNPARSED_ARGUMENTS}
    RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err TIMEOUT 60)
  if(NOT Rc EQUAL 2)
    message(FATAL_ERROR
        "expected exit 2, got '${Rc}' from: ${ARG_UNPARSED_ARGUMENTS}")
  endif()
  if(ARG_MESSAGE AND NOT Err MATCHES "${ARG_MESSAGE}")
    message(FATAL_ERROR "exit 2 without '${ARG_MESSAGE}' from: "
        "${ARG_UNPARSED_ARGUMENTS}: ${Err}")
  endif()
  message(STATUS "exit 2 as expected: ${ARG_UNPARSED_ARGUMENTS}: ${Err}")
endfunction()

expect_usage_error(${OLTP_YCSB} --shards=3 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --threads=65 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --ring-bits=44 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --ring-bits=64 --records=64 --ops=64)
# A theta that is not a finite number in [0, 1), and counts or
# percentages that are negative, overflow the 32-bit node pool or fall
# outside [0, 100], used to run with a wrong value or abort.
set(OltpSmall --threads=2 --records=64 --ops=64)
expect_usage_error(${OLTP_YCSB} --theta=abc ${OltpSmall})
expect_usage_error(${OLTP_YCSB} --theta=nan ${OltpSmall})
expect_usage_error(${OLTP_YCSB} --theta=1 ${OltpSmall})
expect_usage_error(${OLTP_YCSB} --records=-1 --threads=2 --ops=64)
expect_usage_error(${OLTP_YCSB} --records=5000000000 --threads=2 --ops=64)
expect_usage_error(${OLTP_YCSB} --ops=-1 --threads=2 --records=64)
expect_usage_error(${OLTP_YCSB} --scan-len=-1 --mix=e ${OltpSmall})
expect_usage_error(${OLTP_YCSB} --read=150 --update=-50 ${OltpSmall})
expect_usage_error(${OLTP_YCSB} --records=4294967295 --threads=2 --ops=64
    MESSAGE "overflow the node pool")
# A budget of exactly UINT32_MAX nodes: the pool's index 0 is its null
# node, so capacity + 1 wrapped to 0 and the first allocation aborted.
expect_usage_error(${OLTP_YCSB} --structure=skiplist --records=4294963183
    --ops=0 --threads=2 --mix=c MESSAGE "overflow the node pool")
expect_usage_error(${CHECK_FUZZ} --backend=sharded --shards=3 --iters=1)
expect_usage_error(${CHECK_FUZZ} --backend=sharded --shards=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --workload=skiplist --threads=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --threads=0 --iters=1)
expect_usage_error(${CHECK_FUZZ} --backend=orec-eager --threads=65 --iters=4)
expect_usage_error(${CHECK_FUZZ} --perturb-shift=64 --iters=1)
expect_usage_error(${CHECK_FUZZ} --perturb-shift=-1 --iters=1)
# The engines take no yield shift; the option that set it is unknown.
expect_usage_error(${CHECK_FUZZ} --preempt-shift=2 --iters=1
    MESSAGE "unknown option '--preempt-shift'")
# A value that does not parse used to run with the default (seed 1, 256
# seeds), a negative count wrapped to 2^32 (bad_alloc), and zero
# variables checked plans with nothing shared.
expect_usage_error(${CHECK_FUZZ} --seed=12x MESSAGE "--seed")
expect_usage_error(${CHECK_FUZZ} --iters=abc MESSAGE "--iters")
expect_usage_error(${CHECK_FUZZ} --txns=-1 --iters=1 MESSAGE "--txns")
expect_usage_error(${CHECK_FUZZ} --vars=0 --iters=1 MESSAGE "--vars")
expect_usage_error(${OLTP_YCSB} --seed=1.5 ${OltpSmall} MESSAGE "--seed")

# A bench_runner that got past its checks would write a snapshot; keep it
# in the build tree.
set(BenchOut --out-dir=${CMAKE_CURRENT_BINARY_DIR}/cli-rejects)
expect_usage_error(${BENCH_RUNNER} --smoke --suite=stamp --repeats=0
                   ${BenchOut} MESSAGE "--repeats")
expect_usage_error(${BENCH_RUNNER} --smoke --suite=stamp --threads=0
                   ${BenchOut} MESSAGE "--threads")
expect_usage_error(${BENCH_RUNNER} --smoke --suite=stamp --threads=100
                   ${BenchOut} MESSAGE "--threads")
expect_usage_error(${BENCH_RUNNER} --smoke --suite=stamp --repeats=abc
                   ${BenchOut} MESSAGE "--repeats")

# bench_regress gated every row at 0% on a tolerance that did not parse;
# the directory holds no snapshot, so a run past the check passes.
expect_usage_error(${BENCH_REGRESS} --tolerance=abc
                   --dir=${CMAKE_CURRENT_BINARY_DIR}/cli-rejects
                   MESSAGE "--tolerance")

# model_ctl needs a real model for its load cases; a save or load that got
# past its checks writes or reads it in the build tree.
set(ModelDir ${CMAKE_CURRENT_BINARY_DIR}/cli-rejects/model-ctl)
file(REMOVE_RECURSE ${ModelDir})
file(MAKE_DIRECTORY ${ModelDir})
set(Model ${ModelDir}/kmeans.json)
execute_process(
  COMMAND ${MODEL_CTL} save --workload=kmeans --size=small --threads=2
          --runs=1 --out=${Model}
  RESULT_VARIABLE SaveRc OUTPUT_QUIET)
if(NOT SaveRc EQUAL 0)
  message(FATAL_ERROR "model_ctl save of the load fixture failed (${SaveRc})")
endif()
set(Save ${MODEL_CTL} save --workload=kmeans --size=small)
set(Load ${MODEL_CTL} load ${Model} --run --workload=kmeans --size=small)
expect_usage_error(${Save} --threads=0 --runs=1 --out=${ModelDir}/t0.json
                   MESSAGE "--threads")
expect_usage_error(${Save} --threads=65 --runs=1 --out=${ModelDir}/t65.json
                   MESSAGE "--threads")
expect_usage_error(${Save} --threads=2 --runs=0 --out=${ModelDir}/r0.json
                   MESSAGE "--runs")
expect_usage_error(${Load} --threads=0 --runs=1 MESSAGE "--threads")
expect_usage_error(${Load} --threads=2 --runs=0 MESSAGE "--runs")
expect_usage_error(${Save} --threads=2 --runs=abc --out=${ModelDir}/rabc.json
                   MESSAGE "--runs")
# 2^32 runs wrapped to 0 in the 32-bit count and saved an empty model.
expect_usage_error(${Save} --threads=2 --runs=4294967296
                   --out=${ModelDir}/r2p32.json MESSAGE "--runs.*4294967295")
expect_usage_error(${MODEL_CTL} info ${Model} --tfactor=0 MESSAGE "--tfactor")
expect_usage_error(${MODEL_CTL} info ${Model} --tfactor=nan
                   MESSAGE "--tfactor")
# A model is a file: the keyed store and its options are gone.
expect_usage_error(${Save} --threads=2 --runs=1 --store=${ModelDir}/store
                   MESSAGE "unknown option '--store'")
expect_usage_error(${MODEL_CTL} list --store=${ModelDir}/store
                   MESSAGE "unknown option '--store'")

# The STAMP paper driver parses with BenchOptions::parse; small inputs keep
# a run that got past its checks short.
set(Stamp ${PAPER_STAMP} --workloads=kmeans --size=small --train-size=small
          --profile-runs=1)
expect_usage_error(${Stamp} --threads=0 --runs=1 MESSAGE "--threads")
expect_usage_error(${Stamp} --threads=2 --runs=0 MESSAGE "--runs")
expect_usage_error(${Stamp} --threads=2 --runs=1 --rusn=1
                   MESSAGE "unknown option '--rusn'")
expect_usage_error(${Stamp} --threads=2 --runs=1 --tfactor=0.5
                   MESSAGE "--tfactor")
# There is one tuple grouping, the sequence tuples a guided run forms
# online, so no front end takes a grouping option.
expect_usage_error(${Stamp} --threads=2 --runs=1 --grouping=causal
                   MESSAGE "unknown option '--grouping'")
# A count, size class or bool that does not parse used to run with the
# default (runs=8, small inputs, forcing on).
set(StampNoSize ${PAPER_STAMP} --workloads=kmeans --profile-runs=1
                --threads=2)
expect_usage_error(${Stamp} --threads=2 --runs=abc MESSAGE "--runs")
# 2^32 runs wrapped to 0 in the 32-bit count and measured nothing.
expect_usage_error(${Stamp} --threads=2 --runs=4294967296
                   MESSAGE "--runs.*4294967295")
expect_usage_error(${StampNoSize} --runs=1 --size=lage --train-size=small
                   MESSAGE "--size")
expect_usage_error(${StampNoSize} --runs=1 --size=small --train-size=Medium
                   MESSAGE "--train-size")
expect_usage_error(${Stamp} --threads=2 --runs=1 --force-guided=no
                   MESSAGE "--force-guided")
# An unknown STAMP name used to be found only when its turn came: after
# the kmeans experiment here, or after ablation_tfactor's banner, with
# exit 1.
expect_usage_error(${PAPER_STAMP} --workloads=kmeans,nosuch --threads=2
                   --size=small --train-size=small --profile-runs=1 --runs=1
                   MESSAGE "--workloads must be .*not 'nosuch'")
expect_usage_error(${ABLATION_TFACTOR} --workload=nosuch --threads=2
                   --size=small --train-size=small --profile-runs=1 --runs=1
                   MESSAGE "--workload must be .*not 'nosuch'")

# The SynQuake paper driver (Table V, Figures 11 and 12) parses with
# SynQuakeBenchOptions::parse and the checks above.
set(SynQuake ${PAPER_SYNQUAKE} --players=20 --frames=2 --train-frames=2
             --profile-runs=1)
expect_usage_error(${SynQuake} --threads=0 --runs=1 MESSAGE "--threads")
expect_usage_error(${SynQuake} --threads=2 --runs=0 MESSAGE "--runs")
expect_usage_error(${SynQuake} --threads=2 --runs=-1 MESSAGE "--runs")
expect_usage_error(${SynQuake} --threads=2 --runs=1 --frames=0
                   MESSAGE "--frames")
expect_usage_error(${SynQuake} --threads=2 --runs=1 --rusn=3
                   MESSAGE "unknown option '--rusn'")
expect_usage_error(${SynQuake} --threads=2 --runs=1 --tfactor=0
                   MESSAGE "--tfactor")

# The examples parse with OptionSet and the paper drivers' checks: zero
# threads, more threads than stats shards, and a misspelled key.
expect_usage_error(${QUICKSTART} --threads=0 MESSAGE "--threads")
expect_usage_error(${QUICKSTART} --threads=65 MESSAGE "--threads")
expect_usage_error(${QUICKSTART} --thraeds=2
                   MESSAGE "unknown option '--thraeds'")
# An unknown quest used to run 4quadrants.
expect_usage_error(${GAME_SERVER} --quest=center --players=20 --frames=2
                   MESSAGE "--quest")

# stm_lint reports in text only and reads no waiver file: the JSON, SARIF
# and baseline options are refused.
get_filename_component(SourceDir ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
set(Lint ${STM_LINT} --root=${SourceDir} src/lint)
expect_usage_error(${Lint} --json MESSAGE "unknown option '--json'")
expect_usage_error(${Lint} --sarif-dir=${CMAKE_CURRENT_BINARY_DIR}
                   MESSAGE "unknown option '--sarif-dir'")
expect_usage_error(${Lint} --baseline=${CMAKE_CURRENT_LIST_FILE}
                   MESSAGE "unknown option '--baseline'")
expect_usage_error(${Lint} --write-baseline
                   MESSAGE "unknown option '--write-baseline'")

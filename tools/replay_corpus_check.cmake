# Replays every checked-in capture artifact (tests/corpus/*.pcap) with
# proteus-replay — each must re-execute byte-identical with a matching
# specialization hash — and re-lints each artifact's pruned kernel bitcode
# against its .expect file (the exact sanitizer findings recorded when the
# corpus was generated; an empty .expect means lint-clean). Each .expect
# also pins the kernel's roofline bottleneck class per simulated target on
# a line of the form
#
#   roofline: amdgcn-sim=<Class> nvptx-sim=<Class>
#
# which is checked against pir-roofline's verdict on the dumped PIR — the
# classifier's golden regression set. Invoked by the replay_corpus_check
# ctest (see tools/CMakeLists.txt) with -DREPLAY=..., -DLINT=...,
# -DROOFLINE=..., -DCORPUS_DIR=..., -DWORK_DIR=...

file(GLOB Artifacts "${CORPUS_DIR}/*.pcap")
if(NOT Artifacts)
  message(FATAL_ERROR "no capture artifacts found in ${CORPUS_DIR}")
endif()
list(SORT Artifacts)
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(Artifact IN LISTS Artifacts)
  get_filename_component(Base "${Artifact}" NAME_WE)

  # 1. Differential replay: byte-identical output, identical spec hash.
  execute_process(
    COMMAND "${REPLAY}" "${Artifact}"
    RESULT_VARIABLE ReplayResult
    OUTPUT_VARIABLE ReplayOut
    ERROR_VARIABLE ReplayErr)
  if(NOT ReplayResult EQUAL 0)
    message(FATAL_ERROR
      "replay of ${Base}.pcap failed (rc=${ReplayResult}):\n"
      "${ReplayOut}\n${ReplayErr}")
  endif()
  message(STATUS "${ReplayOut}")

  # 2. Sanitizer expectations: dump the artifact's pruned module as PIR,
  # lint it, and require the exact recorded finding kinds and counts.
  set(ExpectFile "${CORPUS_DIR}/${Base}.expect")
  if(NOT EXISTS "${ExpectFile}")
    message(FATAL_ERROR "missing ${Base}.expect next to ${Base}.pcap")
  endif()

  set(PirFile "${WORK_DIR}/${Base}.pir")
  execute_process(
    COMMAND "${REPLAY}" --dump-pir "${Artifact}"
    RESULT_VARIABLE DumpResult
    OUTPUT_FILE "${PirFile}"
    ERROR_VARIABLE DumpErr)
  if(NOT DumpResult EQUAL 0)
    message(FATAL_ERROR
      "--dump-pir of ${Base}.pcap failed (rc=${DumpResult}):\n${DumpErr}")
  endif()

  execute_process(
    COMMAND "${LINT}" "${PirFile}"
    RESULT_VARIABLE LintResult
    OUTPUT_VARIABLE LintOut
    ERROR_VARIABLE LintErr)

  file(READ "${ExpectFile}" ExpectedRaw)
  string(STRIP "${ExpectedRaw}" ExpectedRaw)

  # Separate the pinned roofline classification from the sanitizer
  # findings: the "roofline:" line feeds the classifier check below, the
  # rest stays the exact lint expectation.
  set(Expected "")
  set(RooflineExpect "")
  string(REPLACE "\n" ";" ExpectLines "${ExpectedRaw}")
  foreach(Line IN LISTS ExpectLines)
    if(Line MATCHES "^roofline: (.*)$")
      set(RooflineExpect "${CMAKE_MATCH_1}")
    elseif(NOT Line STREQUAL "")
      list(APPEND Expected "${Line}")
    endif()
  endforeach()
  string(REPLACE ";" "\n" Expected "${Expected}")
  string(STRIP "${Expected}" Expected)

  # pir-lint prints "<file>: [kind] @kernel(block): message" per finding
  # plus a trailing summary; reduce to the bare rendered findings so the
  # comparison is path-independent.
  set(Findings "")
  string(REPLACE "\n" ";" LintLines "${LintOut}")
  foreach(Line IN LISTS LintLines)
    if(Line MATCHES "^.*\\.pir: (.*)$")
      list(APPEND Findings "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  string(REPLACE ";" "\n" Findings "${Findings}")
  string(STRIP "${Findings}" Findings)

  if(Expected STREQUAL "")
    if(NOT LintResult EQUAL 0)
      message(FATAL_ERROR
        "${Base}.pcap expected lint-clean, got findings (rc=${LintResult}):\n"
        "${LintOut}\n${LintErr}")
    endif()
  else()
    if(NOT LintResult EQUAL 1)
      message(FATAL_ERROR
        "${Base}.pcap expected sanitizer findings, pir-lint rc=${LintResult}:\n"
        "${LintOut}\n${LintErr}")
    endif()
    if(NOT Findings STREQUAL Expected)
      message(FATAL_ERROR
        "${Base}.pcap sanitizer findings diverge from ${Base}.expect\n"
        "expected:\n${Expected}\n"
        "actual:\n${Findings}")
    endif()
  endif()
  message(STATUS "${Base}: sanitizer expectations hold")

  # 3. Roofline golden classification: pir-roofline's verdict on the dumped
  # PIR must match the class pinned per target in the .expect file.
  if(RooflineExpect STREQUAL "")
    message(FATAL_ERROR
      "${Base}.expect pins no roofline classification (expected a line "
      "'roofline: amdgcn-sim=<Class> nvptx-sim=<Class>')")
  endif()
  execute_process(
    COMMAND "${ROOFLINE}" --target=all "${PirFile}"
    RESULT_VARIABLE RoofResult
    OUTPUT_VARIABLE RoofOut
    ERROR_VARIABLE RoofErr)
  if(NOT RoofResult EQUAL 0)
    message(FATAL_ERROR
      "pir-roofline on ${Base}.pir failed (rc=${RoofResult}):\n"
      "${RoofOut}\n${RoofErr}")
  endif()
  set(AmdClass "")
  set(NvClass "")
  if(RoofOut MATCHES "\\[amdgcn-sim\\] class=([A-Za-z]+)")
    set(AmdClass "${CMAKE_MATCH_1}")
  endif()
  if(RoofOut MATCHES "\\[nvptx-sim\\] class=([A-Za-z]+)")
    set(NvClass "${CMAKE_MATCH_1}")
  endif()
  set(RooflineActual "amdgcn-sim=${AmdClass} nvptx-sim=${NvClass}")
  if(NOT RooflineActual STREQUAL RooflineExpect)
    message(FATAL_ERROR
      "${Base}.pcap roofline classification diverges from ${Base}.expect\n"
      "expected: roofline: ${RooflineExpect}\n"
      "actual:   roofline: ${RooflineActual}\n"
      "full output:\n${RoofOut}")
  endif()
  message(STATUS "${Base}: roofline class pinned (${RooflineActual})")

  # 4. Per-arch recompile replay: the artifact's bitcode recompiled through
  # each simulated backend must still reproduce the captured bytes, so the
  # per-arch compile is checked on both arches (one of the two is the
  # recorded arch, so this also covers the plain replay with an explicit
  # override).
  foreach(Arch amdgcn-sim nvptx-sim)
    execute_process(
      COMMAND "${REPLAY}" "--device-arch=${Arch}" "${Artifact}"
      RESULT_VARIABLE RetargetResult
      OUTPUT_VARIABLE RetargetOut
      ERROR_VARIABLE RetargetErr)
    if(NOT RetargetResult EQUAL 0)
      message(FATAL_ERROR
        "retargeted replay of ${Base}.pcap on ${Arch} failed "
        "(rc=${RetargetResult}):\n${RetargetOut}\n${RetargetErr}")
    endif()
  endforeach()
  message(STATUS "${Base}: retargeted replay byte-identical on both arches")
endforeach()

list(LENGTH Artifacts Count)
message(STATUS "replay_corpus_check: ${Count} artifact(s) verified")

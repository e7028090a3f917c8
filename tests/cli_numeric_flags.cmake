# Runs a service CLI once per malformed value of each numeric flag and
# requires exit status 2 plus an error that names the flag. The bad value
# is rejected while the arguments are parsed, so no daemon starts and no
# socket is opened.
#
#   cmake -DBIN=<path> -DFLAGS=<flag>,<flag>,... -P cli_numeric_flags.cmake
#
# Every flag is tried with "abc" and "-1"; --tcp also with 70000, above
# the largest port.
string(REPLACE "," ";" FLAGS "${FLAGS}")
foreach(FLAG ${FLAGS})
  set(VALUES abc -1)
  if(FLAG STREQUAL "--tcp")
    list(APPEND VALUES 70000)
  endif()
  foreach(VALUE ${VALUES})
    execute_process(COMMAND ${BIN} ${FLAG} ${VALUE}
      RESULT_VARIABLE RC ERROR_VARIABLE ERR OUTPUT_QUIET TIMEOUT 10)
    string(FIND "${ERR}" "${FLAG} needs a whole number" AT)
    if(NOT RC EQUAL 2 OR AT EQUAL -1)
      message(SEND_ERROR "${FLAG} ${VALUE}: exit ${RC}, stderr: ${ERR}")
    endif()
  endforeach()
endforeach()

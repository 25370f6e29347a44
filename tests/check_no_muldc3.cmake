# Fails if an object file references __muldc3, libgcc's NaN-checking
# complex multiply. The FFT, the nonlinear stage and the observables write
# their complex products out part by part (fft/engine.hpp, core/cmul.hpp);
# a std::complex product slipping back in would bring the call back.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>|... -DMATCH=<regex> -DMIN=<n>
#         -P check_no_muldc3.cmake
#
# Only the objects whose path matches MATCH are checked, and at least MIN
# of them must be, so a renamed source cannot turn the check into a no-op.
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
set(bad "")
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "${MATCH}")
    continue()
  endif()
  execute_process(COMMAND "${NM}" "${obj}" OUTPUT_VARIABLE syms
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm failed on ${obj}")
  endif()
  math(EXPR checked "${checked} + 1")
  if(syms MATCHES "__muldc3")
    list(APPEND bad "${obj}")
  endif()
endforeach()
if(checked LESS MIN)
  message(FATAL_ERROR "checked ${checked} objects, expected at least ${MIN}")
endif()
if(bad)
  message(FATAL_ERROR "__muldc3 referenced by: ${bad}")
endif()
message(STATUS "no __muldc3 in ${checked} objects")

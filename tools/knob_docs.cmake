# knob_docs: every A3CS_* knob named by a string literal in src/, bench/ or
# examples/ must appear as a word somewhere in docs/ or README.md, so a new
# knob cannot ship undocumented; and every knob-table row in docs/ or
# README.md (a line starting `| \`A3CS_...`) must name a knob that some
# source reads, so a removed knob cannot stay documented.
#
#   cmake -DROOT=<repo root> -P tools/knob_docs.cmake
if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P knob_docs.cmake")
endif()

file(GLOB_RECURSE sources
  ${ROOT}/src/*.h ${ROOT}/src/*.cc
  ${ROOT}/bench/*.h ${ROOT}/bench/*.cc
  ${ROOT}/examples/*.h ${ROOT}/examples/*.cpp)
set(knobs "")
foreach(source ${sources})
  file(STRINGS ${source} lines REGEX "\"A3CS_[A-Z0-9_]+\"")
  foreach(line ${lines})
    string(REGEX MATCHALL "\"A3CS_[A-Z0-9_]+\"" found "${line}")
    list(APPEND knobs ${found})
  endforeach()
endforeach()
list(REMOVE_DUPLICATES knobs)

file(GLOB docs ${ROOT}/docs/*.md)
set(text "")
foreach(doc ${docs} ${ROOT}/README.md)
  file(READ ${doc} body)
  string(APPEND text "${body}")
endforeach()

set(missing "")
foreach(quoted ${knobs})
  string(REPLACE "\"" "" knob "${quoted}")
  if(NOT text MATCHES "(^|[^A-Z0-9_])${knob}([^A-Z0-9_]|$)")
    list(APPEND missing ${knob})
  endif()
endforeach()
list(LENGTH knobs count)
if(missing)
  message(FATAL_ERROR "undocumented knobs (add them to docs/ or README.md): "
                      "${missing}")
endif()

set(stale "")
foreach(doc ${docs} ${ROOT}/README.md)
  file(STRINGS ${doc} rows REGEX "^\\| `A3CS_[A-Z0-9_]+")
  foreach(row ${rows})
    if(row MATCHES "^\\| `(A3CS_[A-Z0-9_]+)")
      list(FIND knobs "\"${CMAKE_MATCH_1}\"" at)
      if(at EQUAL -1)
        list(APPEND stale ${CMAKE_MATCH_1})
      endif()
    endif()
  endforeach()
endforeach()
if(stale)
  list(REMOVE_DUPLICATES stale)
  message(FATAL_ERROR "documented knobs no source reads: ${stale}")
endif()
message(STATUS "knob_docs: all ${count} knobs documented")

# Sanitizer plumbing for -DVEGAPLUS_SANITIZE=address,undefined style flags.
#
#   vegaplus_apply_sanitizers(<target> <scope> "<comma-list>")
#
# Validates the requested sanitizers and attaches the matching
# -fsanitize compile and link flags to <target> with the given scope.
function(vegaplus_apply_sanitizers target scope sanitize_list)
  if(sanitize_list STREQUAL "")
    return()
  endif()

  string(REPLACE "," ";" requested "${sanitize_list}")
  set(known address undefined leak thread memory)
  foreach(san IN LISTS requested)
    if(NOT san IN_LIST known)
      message(FATAL_ERROR
        "VEGAPLUS_SANITIZE: unknown sanitizer '${san}' "
        "(known: ${known})")
    endif()
  endforeach()

  # MSan and TSan each require exclusive shadow-memory layouts; reject the
  # combinations at configure time instead of failing on the first compile.
  foreach(other address leak memory)
    if(("thread" IN_LIST requested) AND ("${other}" IN_LIST requested))
      message(FATAL_ERROR "VEGAPLUS_SANITIZE: thread and ${other} are mutually exclusive")
    endif()
  endforeach()
  foreach(other address leak)
    if(("memory" IN_LIST requested) AND ("${other}" IN_LIST requested))
      message(FATAL_ERROR "VEGAPLUS_SANITIZE: memory and ${other} are mutually exclusive")
    endif()
  endforeach()

  # Clang's `undefined` group includes float-cast-overflow; gcc's leaves it
  # out. Name it on gcc so both compilers check float-to-int casts.
  if(("undefined" IN_LIST requested) AND CMAKE_CXX_COMPILER_ID STREQUAL "GNU")
    list(APPEND requested float-cast-overflow)
  endif()

  string(REPLACE ";" "," joined "${requested}")
  set(flags "-fsanitize=${joined}" -fno-omit-frame-pointer)
  target_compile_options(${target} ${scope} ${flags})
  target_link_options(${target} ${scope} ${flags})
  message(STATUS "vegaplus: sanitizers enabled: ${joined}")
endfunction()

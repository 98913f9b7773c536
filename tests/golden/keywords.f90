program kw
  integer n, k, read(3)
  real x
  logical flag
  complex z
  character*8 name
  doubleprecision d
  double precision e
  parameter (n = 3)
  open (10, file='KW.DAT', status='new')
  read (5, *) k
  read *, x
  read(2) = 1
  write (10, fmt='(i4)') k
  write (10, '(1x,f8.2)') x
  write (10, 100) n
100 format (i4, 2x)
  if (flag) write (10, '(i4)') k
  if (flag) write (10, fmt='(1x,i4)') n
  if (flag) read (5, '(i4)') k
  if (k .gt. 0) then
    write (10, *) d
  else if (k .lt. 0) then
    write (10, *) e
  elseif (k .eq. 0) then
    write (10, *) z
  else
    continue
  end if
  if (flag) then
    k = 1
  endif
  do k = 1, n
    write (10, *) name
  end do
  do 20 k = 1, n
    write (10, *) k
20 continue
  if (flag) go to 30
  goto 30
30 continue
  if (flag) close (10)
  if (flag) open (11, file='KW2.DAT')
  close (10)
end program kw

subroutine s
  write (6, *) 'in s'
end subroutine s

function h(y)
  h = 2
end function h

integer function f(x)
  f = 1
end

double precision function g(x)
  g = 1
end

program nest
  implicit none
  integer n, m, nrec, i, j, k
  parameter (n=3, m=4)
  real x(n,m)
  character*12 fname
  parameter (fname='GRID.DAT')
  open(4, file=fname, status='UNKNOWN')
  open(9, file='LOG.TXT')
  do i = 1, n
    do j = 1, m
      x(i,j) = i * j
      if (x(i,j) > 5.0) then
        write(9, '(1x,a,2i4)') 'big', i, j
      else
        write(*, *) i, j
      endif
    end do
    write(4, 100) x(i,1), x(i,2)
  end do
  do 20 i = 1, n
  do 20 k = 1, 2
  read(4, *) x(i,k)
20 continue
  read(*, *) nrec
  do i = 1, nrec
    write(9, fmt='(i6)') i
  enddo
100 format(1x, 2f8.3)
  close(4)
  close(9)
end program nest

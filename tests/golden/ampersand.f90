program amp
  open(8, file='R&D.DAT')
  write(8, '(i4, a)') 7, &
     'x ! not a comment &'   ! a comment &
  write(8, 100) 8, &  ! '&' ends this line
     & 'AND&'
100 format(i4, &
   &  a4)
  close(8)
end program amp
